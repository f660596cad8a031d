//! `History::parse` allocates per distinct key and per transaction of the
//! result, not per event or JSON value: the document is read once and each
//! key is interned once, so what remains is each key's name in the key
//! table, each transaction's event list and a few growing buffers. In bytes
//! that is at most twice the document's length: nothing holds the document
//! a second time. `lower`
//! likewise allocates per transaction and per session, not per event or
//! per serializer scan. (The counting allocator is this test binary's
//! global allocator, so the tests have a file of their own.)

use dc_histories::{generate, lower, AnomalyMode, GenHistoryParams, History};

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocated_bytes, allocations};

#[test]
fn parse_allocates_per_key_and_transaction_not_per_event_or_json_value() {
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
        let (before, bytes_before) = (allocations(), allocated_bytes());
        let history = History::parse(&text).unwrap();
        let calls = allocations() - before;
        let bytes = allocated_bytes() - bytes_before;
        assert!(
            bytes <= 2 * text.len() as u64,
            "{}: {bytes} bytes allocated to parse {} bytes of input (bound 2 x input)",
            mode.as_str(),
            text.len()
        );
        let (keys, txs) = (history.keys().len(), history.transaction_count());
        let bound = keys + 2 * txs + 32;
        assert!(
            calls <= bound as u64,
            "{}: {calls} allocator calls for {keys} distinct keys in {txs} transactions \
             (bound {bound})",
            mode.as_str()
        );
    }
}

/// `lower` allocates per transaction (its method name and body) and per
/// session, plus a few tables and growing buffers: resolving reads, placing
/// events and writing the script allocate nothing per event or per scan.
#[test]
fn lower_allocates_per_transaction_and_session_not_per_event_or_scan() {
    for mode in AnomalyMode::ALL {
        let history = generate(&GenHistoryParams {
            seed: 7,
            sessions: 4,
            base_txs: 64,
            ops_per_tx: 4,
            keys: 16,
            mode,
        })
        .history;
        let before = allocations();
        let lowered = lower(&history).unwrap();
        let calls = allocations() - before;
        drop(lowered);
        let (txs, sessions) = (history.transaction_count(), history.sessions.len());
        let bound = 4 * txs + 8 * sessions + 32;
        assert!(
            calls <= bound as u64,
            "{}: {calls} allocator calls for {txs} transactions in {sessions} sessions \
             ({} events; bound {bound})",
            mode.as_str(),
            history.event_count()
        );
    }
}
