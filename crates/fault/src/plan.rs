//! The fault plan, defined in `msp_grid::fault` beside the layout it is
//! checked against (`msp-oracle`'s cases, below this crate, hold one),
//! re-exported and tested here.

pub use msp_grid::fault::{FaultEvent, FaultPlan, PlanParseError, SendFate};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn builder_and_queries() {
        let p = FaultPlan::new()
            .crash(2, 1)
            .drop_msg(0, 3, 7)
            .slow_rank(1, 2.5)
            .slow_rank(1, 2.0);
        assert!(p.should_crash(2, 1));
        assert!(!p.should_crash(2, 2));
        assert!(!p.should_crash(1, 1));
        assert_eq!(p.slow_factor(1), 5.0);
        assert_eq!(p.slow_factor(0), 1.0);
        assert_eq!(p.n_crashes(), 1);
    }

    #[test]
    fn fate_maps_drop_and_delay() {
        let p = FaultPlan::new().drop_msg(0, 1, 3).delay_msg(1, 0, 2, 40);
        assert_eq!(p.fate(0, 1, 3), SendFate::Drop);
        assert_eq!(p.fate(0, 1, 2), SendFate::Deliver);
        assert_eq!(p.fate(1, 0, 2), SendFate::Delay(Duration::from_millis(40)));
        // crash and panic events never affect message fates
        let c = FaultPlan::new().crash(0, 1).panic(0, 1);
        assert_eq!(c.fate(0, 1, 1), SendFate::Deliver);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded_crashes(2012, 8, 3, 0.3);
        let b = FaultPlan::seeded_crashes(2012, 8, 3, 0.3);
        assert_eq!(a, b);
        let c = FaultPlan::seeded_crashes(2013, 8, 3, 0.3);
        assert_ne!(a, c, "different seed, different plan");
        // rate 0 => no crashes; rate 1 => every cell crashes
        assert!(FaultPlan::seeded_crashes(1, 8, 3, 0.0).is_empty());
        assert_eq!(FaultPlan::seeded_crashes(1, 8, 3, 1.0).n_crashes(), 24);
    }

    /// The `fault_sweep` figure's seeded rows (`results/fault_sweep.txt`):
    /// seed 2012 over 8 ranks and 3 rounds.
    #[test]
    fn seeded_plans_are_pinned() {
        let crashes = |rate| FaultPlan::seeded_crashes(2012, 8, 3, rate).events;
        let crash = |rank, round| FaultEvent::Crash { rank, round };
        assert_eq!(crashes(0.02), vec![]);
        assert_eq!(crashes(0.05), vec![crash(6, 3)]);
        assert_eq!(crashes(0.10), vec![crash(0, 2), crash(6, 3)]);
    }

    #[test]
    fn seeded_rate_is_roughly_honoured() {
        let p = FaultPlan::seeded_crashes(7, 100, 100, 0.1);
        let n = p.n_crashes() as f64 / 10_000.0;
        assert!((n - 0.1).abs() < 0.02, "empirical rate {n} far from 0.1");
    }

    #[test]
    fn spec_round_trips() {
        let p: FaultPlan = "crash:2@1; drop:0->3#7 ;delay:1->0#2+40;slow:5*3.5"
            .parse()
            .unwrap();
        assert_eq!(
            p.events,
            vec![
                FaultEvent::Crash { rank: 2, round: 1 },
                FaultEvent::DropMsg {
                    from: 0,
                    to: 3,
                    nth: 7
                },
                FaultEvent::DelayMsg {
                    from: 1,
                    to: 0,
                    nth: 2,
                    delay_ms: 40
                },
                FaultEvent::SlowRank {
                    rank: 5,
                    factor: 3.5
                },
            ]
        );
        assert_eq!("".parse::<FaultPlan>().unwrap(), FaultPlan::new());
    }

    #[test]
    fn panic_spec_round_trips_beside_a_crash() {
        let p: FaultPlan = "panic:1@1; crash:2@3".parse().unwrap();
        assert_eq!(p, FaultPlan::new().panic(1, 1).crash(2, 3));
        assert!(p.should_panic(1, 1));
        assert!(!p.should_panic(1, 2) && !p.should_panic(2, 3));
        // a panic is no crash: nothing restores or replays it
        assert!(!p.should_crash(1, 1));
        assert_eq!(p.n_crashes(), 1);
        let e = "panic:1".parse::<FaultPlan>().unwrap_err();
        assert_eq!(e.what, "expected `panic:R@K`");
        let e = "panic:1@x".parse::<FaultPlan>().unwrap_err();
        assert_eq!(e.what, "bad round");
    }

    /// `Display` writes the spec `FromStr` reads, for every kind, so a
    /// plan printed into a reproducer parses back to itself.
    #[test]
    fn display_inverts_from_str_for_every_kind() {
        let p = FaultPlan::new()
            .crash(2, 1)
            .panic(0, 3)
            .drop_msg(0, 3, 7)
            .delay_msg(1, 0, 2, 40)
            .slow_rank(5, 3.5)
            .slow_rank(1, 4.0 / 3.0);
        let spec = p.to_string();
        assert_eq!(
            spec,
            "crash:2@1;panic:0@3;drop:0->3#7;delay:1->0#2+40;slow:5*3.5;\
             slow:1*1.3333333333333333"
        );
        assert_eq!(spec.parse::<FaultPlan>().unwrap(), p);
        assert_eq!(FaultPlan::new().to_string(), "");
        for e in &p.events {
            let one = FaultPlan { events: vec![*e] };
            assert_eq!(e.to_string().parse::<FaultPlan>().unwrap(), one);
        }
    }

    /// The range check a run applies before it starts: 4 ranks and two
    /// merge rounds have cuts 1..=3 (3 is the pre-write cut).
    #[test]
    fn check_refuses_what_the_run_does_not_have() {
        let fits = "crash:3@3;panic:0@1;drop:1->0#1;delay:0->3#9+5;slow:3*2";
        fits.parse::<FaultPlan>().unwrap().check(4, 2).unwrap();
        for (spec, why) in [
            ("crash:9@1", "names rank 9 of a 4-rank run"),
            ("crash:1@7", "names cut 7 of a run with cuts 1..=3"),
            ("panic:1@0", "names cut 0 of a run with cuts 1..=3"),
            ("drop:9->0#1", "names rank 9 of a 4-rank run"),
            ("delay:0->4#1+5", "names rank 4 of a 4-rank run"),
            ("slow:4*2", "names rank 4 of a 4-rank run"),
        ] {
            let p: FaultPlan = format!("crash:0@1;{spec}").parse().unwrap();
            let err = p.check(4, 2).unwrap_err();
            assert_eq!(err, format!("fault clause \"{spec}\" {why}"));
        }
    }

    #[test]
    fn spec_errors_name_the_clause() {
        let e = "crash:2@1;bogus:3".parse::<FaultPlan>().unwrap_err();
        assert_eq!(e.clause, "bogus:3");
        let e = "crash:x@1".parse::<FaultPlan>().unwrap_err();
        assert_eq!(e.what, "bad rank");
        let e = "drop:0-3#1".parse::<FaultPlan>().unwrap_err();
        assert_eq!(e.what, "expected `F->T` link");
        let e = "slow:1*0.5".parse::<FaultPlan>().unwrap_err();
        assert_eq!(e.what, "slowdown factor must be >= 1");
        assert!(!e.to_string().is_empty());
    }
}
