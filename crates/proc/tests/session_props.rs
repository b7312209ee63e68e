//! Property tests for the per-rank session machine: at-most-once dispatch
//! under arbitrary duplication and reordering, exactly-once dispatch under
//! the worker's resend-until-replied discipline, byte-identical replay of
//! cached replies, and a panic-free resume path. The socket-level version
//! of the exactly-once claim lives in `proc_chaos.rs`.

use std::sync::Arc;

use dtrain_proc::{Inbound, ResumeDecision, Session};
use proptest::prelude::*;

/// A distinguishable encoded reply for `seq`, so replay mixups surface.
fn reply_for(seq: u32) -> (u8, Arc<Vec<u8>>) {
    ((seq % 251) as u8, Arc::new(seq.to_le_bytes().to_vec()))
}

/// A duplicate replay and a resume replay both hand back the very bytes
/// `cache_reply` stored: equal contents, and the same allocation (the
/// replay shares the cached payload instead of copying it).
#[test]
fn replays_return_the_cached_bytes() {
    let mut s = Session::default();
    assert_eq!(s.classify(3), Inbound::Fresh);
    let stored = Arc::new(vec![0xA5u8; 4096]);
    s.cache_reply(9, Arc::clone(&stored));
    let Inbound::Duplicate(Some((ty, dup))) = s.classify(3) else {
        panic!("a duplicate after the reply must replay it");
    };
    assert_eq!((ty, &dup), (9, &stored));
    assert!(Arc::ptr_eq(&dup, &stored));
    let ResumeDecision::ResendCached(ty, resent) = s.on_resume(3) else {
        panic!("a resume after the reply must replay it");
    };
    assert_eq!((ty, &resent), (9, &stored));
    assert!(Arc::ptr_eq(&resent, &stored));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any frame arrival order — duplicates, reordering, gaps: each
    /// distinct seq dispatches at most once, dispatched seqs are strictly
    /// increasing, duplicates replay the reply to *their own* seq, and
    /// everything below the high-water mark is dropped as stale.
    #[test]
    fn at_most_once_dispatch_under_arbitrary_arrival(
        arrivals in prop::collection::vec(1u32..64, 1..200),
        cache_each in (0u8..2).prop_map(|v| v == 1),
    ) {
        let mut s = Session::default();
        let mut dispatched: Vec<u32> = Vec::new();
        for &seq in &arrivals {
            match s.classify(seq) {
                Inbound::Fresh => {
                    prop_assert!(
                        dispatched.last().is_none_or(|&d| seq > d),
                        "dispatch order must be strictly increasing"
                    );
                    dispatched.push(seq);
                    if cache_each {
                        let (ty, payload) = reply_for(seq);
                        s.cache_reply(ty, payload);
                    }
                }
                Inbound::Duplicate(cached) => {
                    let last = *dispatched.last().expect("duplicate implies a dispatch");
                    prop_assert_eq!(seq, last);
                    match cached {
                        Some(r) => prop_assert_eq!(r, reply_for(seq)),
                        None => prop_assert!(!cache_each, "cached reply lost"),
                    }
                }
                Inbound::Stale => {
                    let last = *dispatched.last().expect("stale implies a dispatch");
                    prop_assert!(seq < last, "stale must mean below the high-water mark");
                }
            }
        }
        let mut uniq = dispatched.clone();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), dispatched.len(), "no seq dispatches twice");
    }

    /// The worker keeps one request in flight and resends until replied;
    /// the link may duplicate any frame and echo old ones late. Every
    /// request must dispatch EXACTLY once (an `SspPush` applied twice
    /// would corrupt the model), pre-reply duplicates must wait, and
    /// post-reply duplicates must replay identical bytes.
    #[test]
    fn exactly_once_under_worker_resend_discipline(
        n in 1u32..48,
        dups in prop::collection::vec(0usize..3, 1..48),
        stale_echo in prop::collection::vec(0u8..2, 1..48),
    ) {
        let mut s = Session::default();
        let mut dispatches = 0u32;
        for seq in 1..=n {
            prop_assert_eq!(s.classify(seq), Inbound::Fresh, "first arrival dispatches");
            dispatches += 1;
            // Duplicates racing the dispatch: wait for the cache, never
            // re-dispatch.
            for _ in 0..dups[(seq as usize - 1) % dups.len()] {
                prop_assert_eq!(s.classify(seq), Inbound::Duplicate(None));
            }
            let (ty, payload) = reply_for(seq);
            s.cache_reply(ty, payload);
            // Duplicates after the reply: byte-identical replay.
            for _ in 0..dups[(seq as usize) % dups.len()] {
                prop_assert_eq!(
                    s.classify(seq),
                    Inbound::Duplicate(Some(reply_for(seq)))
                );
            }
            // Ancient frames the link echoes long after their reply was
            // consumed are dropped silently.
            if seq > 1 && stale_echo[(seq as usize - 1) % stale_echo.len()] == 1 {
                prop_assert_eq!(s.classify(seq - 1), Inbound::Stale);
            }
        }
        prop_assert_eq!(dispatches, n, "every request dispatched exactly once");
    }

    /// `on_resume` never panics and matches its spec for any combination
    /// of session state and claimed last-seq.
    #[test]
    fn resume_decision_matches_spec(
        last in 0u32..100,
        cached in (0u8..2).prop_map(|v| v == 1),
        ask in 0u32..100,
    ) {
        let mut s = Session::default();
        if last > 0 {
            prop_assert_eq!(s.classify(last), Inbound::Fresh);
            if cached {
                let (ty, p) = reply_for(last);
                s.cache_reply(ty, p);
            }
        }
        let got = s.on_resume(ask);
        if ask > last {
            prop_assert_eq!(got, ResumeDecision::RequestResend);
        } else if ask == last {
            if last > 0 && cached {
                let (ty, p) = reply_for(last);
                prop_assert_eq!(got, ResumeDecision::ResendCached(ty, p));
            } else {
                prop_assert_eq!(got, ResumeDecision::AwaitInFlight);
            }
        } else {
            prop_assert_eq!(got, ResumeDecision::Refuse);
        }
        prop_assert_eq!(s.resumes, 1);
    }
}
