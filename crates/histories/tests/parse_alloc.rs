//! `History::parse` allocates per event and per transaction of the result,
//! not per JSON value: the document is walked in place, so what remains is
//! each event's key, each transaction's event list and a few growing
//! buffers. (The counting allocator is this test binary's global
//! allocator, so the test has a file of its own.)

use dc_histories::{generate, AnomalyMode, GenHistoryParams, History};

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

#[test]
fn parse_allocates_per_event_and_transaction_not_per_json_value() {
    for mode in AnomalyMode::ALL {
        // The shape of one `history_batch` document.
        let text = generate(&GenHistoryParams {
            seed: 7,
            sessions: 4,
            base_txs: 64,
            ops_per_tx: 4,
            keys: 16,
            mode,
        })
        .history
        .to_json();
        let before = allocations();
        let history = History::parse(&text).unwrap();
        let calls = allocations() - before;
        let (events, txs) = (history.event_count(), history.transaction_count());
        let bound = events + 2 * txs + 32;
        assert!(
            calls <= bound as u64,
            "{}: {calls} allocator calls for {events} events in {txs} transactions \
             (bound {bound})",
            mode.as_str()
        );
    }
}
