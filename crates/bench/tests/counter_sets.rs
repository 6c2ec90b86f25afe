//! Every `counter_set!` declaration in the workspace: `merge` adds each
//! field and saturates, and `to_json` emits exactly the declared keys in
//! declaration order, each bound to its own field.

use fuzzy_barrier::{AsyncSnapshot, ParticipantSnapshot, StatsSnapshot};
use fuzzy_net::PeerLinkSnapshot;
use fuzzy_sim::ProcStats;
use fuzzy_util::{Counter, Json};
use std::time::Duration;

/// The largest value of a counter type.
trait Max {
    fn max() -> Self;
}

impl Max for u64 {
    fn max() -> Self {
        u64::MAX
    }
}

impl Max for Duration {
    fn max() -> Self {
        Duration::MAX
    }
}

fn num<T: Counter>(value: T) -> f64 {
    value
        .to_json()
        .as_f64()
        .expect("a counter exports a number")
}

/// The keys and numbers of an exported counter set, in order.
fn entries(json: &Json) -> (Vec<String>, Vec<f64>) {
    let Json::Obj(fields) = json else {
        panic!("a counter set exports an object, got {json:?}");
    };
    let keys = fields.iter().map(|(k, _)| k.clone()).collect();
    let values = fields.iter().map(|(_, v)| v.as_f64().expect("a number"));
    (keys, values.collect())
}

/// Checks one declaration. Lists every field, in declaration order, with a
/// value for each of two snapshots; all values must differ.
macro_rules! check {
    ($ty:ident { $($field:ident: $a:expr, $b:expr;)+ }) => {{
        let a = $ty { $($field: $a),+ };
        let b = $ty { $($field: $b),+ };
        let max = $ty { $($field: Max::max()),+ };
        let name = stringify!($ty);

        let mut distinct = vec![$(num($a), num($b)),+];
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        assert_eq!(distinct.len(), 2 * $ty::KEYS.len(), "{name}: values must all differ");

        let (keys, values) = entries(&a.to_json());
        assert_eq!(keys, $ty::KEYS, "{name}: to_json emits exactly KEYS");
        assert_eq!(values, [$(num($a)),+], "{name}: keys in declaration order");

        let mut sum = a;
        sum.merge(&b);
        $(assert_eq!(sum.$field, $a + $b, "{name}.{}", stringify!($field));)+
        assert_eq!(entries(&sum.to_json()).1, [$(num($a + $b)),+], "{name}: merged JSON");

        for (mut low, high) in [(a, max), (max, b)] {
            low.merge(&high);
            assert_eq!(low, max, "{name}: merge saturates");
        }
        let (_, saturated) = entries(&max.to_json());
        assert!(saturated.iter().all(|&v| v == u64::MAX as f64), "{name}: {saturated:?}");
    }};
}

#[test]
fn every_counter_set_merges_saturates_and_exports_its_keys() {
    let ns = Duration::from_nanos;
    check!(StatsSnapshot {
        episodes: 1, 11;
        arrivals: 2, 12;
        waits: 3, 13;
        stalls: 4, 14;
        deschedules: 5, 15;
        probes: 6, 16;
        timeouts: 7, 17;
        evictions: 8, 18;
        poisonings: 9, 19;
        stall_time: ns(10), ns(20);
    });
    check!(ParticipantSnapshot {
        arrivals: 1, 6;
        waits: 2, 7;
        stalls: 3, 8;
        stall_time: ns(4), ns(9);
        probes: 5, 10;
    });
    check!(AsyncSnapshot {
        parked: 1, 6;
        resumed: 2, 7;
        polls: 3, 8;
        yields: 4, 9;
        steals: 5, 10;
    });
    check!(ProcStats {
        instructions: 1, 7;
        stall_cycles: 2, 8;
        stall_events: 3, 9;
        busy_cycles: 4, 10;
        barrier_entries: 5, 11;
        syncs: 6, 12;
    });
    check!(PeerLinkSnapshot {
        sent: 1, 4;
        received: 2, 5;
        retries: 3, 6;
    });
}
