//! The versioned on-disk history format and its validation.
//!
//! A history file is a JSON document in the dbcop style (sessions of
//! transactions of read/write events over named keys — see PAPERS.md's
//! dbcop and Elle entries), wrapped in an explicit format tag and version
//! so the schema can evolve without silently misreading old files:
//!
//! ```json
//! {
//!   "format": "dc-history",
//!   "version": 1,
//!   "name": "lost-update",
//!   "anomaly": "lost update",
//!   "expected": "violation",
//!   "sessions": [
//!     [ {"id": 1, "events": [{"op": "r", "key": "x", "value": 0},
//!                            {"op": "w", "key": "x", "value": 1}]} ],
//!     [ {"id": 2, "events": [{"op": "r", "key": "x", "value": 0},
//!                            {"op": "w", "key": "x", "value": 2}]} ]
//!   ]
//! }
//! ```
//!
//! Conventions (matching dbcop):
//!
//! * every key starts at the initial value `0`; a read of value `0` observes
//!   the initial state;
//! * written values are unique per key (value `0` is reserved for the
//!   initial state), so a read's `value` names exactly one writer — this is
//!   how reads-from is recovered without an explicit order in the file;
//! * session order is program order; no order between sessions is recorded.
//!   The importer fixes a deterministic serialization (see
//!   [`crate::lower`]).
//!
//! A key is interned once, when the history is built: every event names it
//! by a [`KeyId`] into the history's one key table ([`History::keys`]), in
//! order of first appearance. An integer key `n`, as dbcop writes them, is
//! the key named `n.to_string()`, so `"1"` and `1` are one key.
//!
//! Every way a file can be malformed is a distinct [`HistoryError`]
//! variant, so callers (the CLI, tests) can assert on the failure class
//! rather than on message text.

use serde_json::{Cursor, Tape};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// Maximum number of sessions an imported history may have. Sessions become
/// engine threads; the cap keeps a malformed file from asking for thousands
/// of threads.
pub const MAX_SESSIONS: usize = 64;

/// Maximum size of a history document, checked before any of it is parsed:
/// it bounds everything the parser and the importer allocate. (The corpus
/// files are under 1 kB, a benchmark document about 15 kB.)
pub const MAX_INPUT_BYTES: usize = 16 << 20;

/// Maximum number of transactions in one session (the benchmark generator
/// makes about 66 over all four sessions).
pub const MAX_TXS_PER_SESSION: usize = 16_384;

/// Maximum number of events in one transaction (the generator makes ≤ 6).
/// A transaction's events become one method body and one retained log.
pub const MAX_EVENTS_PER_TX: usize = 4_096;

/// Maximum number of distinct keys (the generator uses 17). Every key
/// becomes a heap object of the lowered program, so [`crate::lower::lower`]
/// is what enforces it, from the length of the key table.
pub const MAX_KEYS: usize = 65_536;

/// The format tag every history file must carry.
pub const FORMAT_TAG: &str = "dc-history";

/// The schema version this build understands.
pub const SCHEMA_VERSION: u64 = 1;

/// A key: its index in its history's key table ([`History::keys`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KeyId(pub(crate) u32);

impl KeyId {
    /// The key's index into [`History::keys`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One read or write event inside a transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A read of `key` observing `value` (`0` = the initial state).
    Read {
        /// The key read.
        key: KeyId,
        /// The value observed.
        value: u64,
    },
    /// A write of `value` to `key`.
    Write {
        /// The key written.
        key: KeyId,
        /// The (per-key unique, nonzero) value written.
        value: u64,
    },
}

impl Event {
    /// The key this event touches.
    pub fn key(&self) -> KeyId {
        match self {
            Event::Read { key, .. } | Event::Write { key, .. } => *key,
        }
    }

    /// The value read or written.
    pub fn value(&self) -> u64 {
        match self {
            Event::Read { value, .. } | Event::Write { value, .. } => *value,
        }
    }

    /// True for writes.
    pub fn is_write(&self) -> bool {
        matches!(self, Event::Write { .. })
    }
}

/// One transaction: a client-chosen id plus its events in program order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// History-unique transaction id (dbcop's transaction identifier).
    pub id: u64,
    /// The transaction's events in program order.
    pub events: Vec<Event>,
}

/// The verdict a corpus history expects from the checkers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    /// The fixed serialization is conflict-serializable: no checker may
    /// report a violation.
    Serializable,
    /// The fixed serialization carries a conflict cycle: every checker must
    /// report at least one violation.
    Violation,
}

impl Expected {
    /// True if a violation is expected.
    pub fn violation(self) -> bool {
        matches!(self, Expected::Violation)
    }

    /// The schema's string form.
    pub fn as_str(self) -> &'static str {
        match self {
            Expected::Serializable => "serializable",
            Expected::Violation => "violation",
        }
    }
}

/// A parsed, structurally valid transactional history.
///
/// Every event's [`KeyId`] indexes [`History::keys`]; a history is built by
/// [`History::parse`] or [`crate::gen::generate`], which keep it so.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct History {
    /// Optional human-readable name.
    pub name: Option<String>,
    /// Optional anomaly annotation (free text, e.g. `"write skew"`).
    pub anomaly: Option<String>,
    /// Optional expected verdict (required for corpus entries).
    pub expected: Option<Expected>,
    /// The sessions, each a list of transactions in program order.
    pub sessions: Vec<Vec<Transaction>>,
    /// Key names by [`KeyId`], in order of first appearance.
    keys: Vec<String>,
}

impl History {
    /// Key names by [`KeyId`], in order of first appearance.
    pub fn keys(&self) -> &[String] {
        &self.keys
    }

    /// The name of `key`.
    pub fn key_name(&self, key: KeyId) -> &str {
        &self.keys[key.index()]
    }

    /// Builds the key table of events made with provisional key ids, which
    /// index `names`: the keys are renumbered in order of first appearance,
    /// as [`History::parse`] numbers them.
    pub(crate) fn intern_keys(&mut self, names: &[String]) {
        let mut interner = Interner::default();
        for tx in self.sessions.iter_mut().flatten() {
            for Event::Read { key, .. } | Event::Write { key, .. } in &mut tx.events {
                *key = interner.id(names[key.index()].as_str());
            }
        }
        self.keys = interner.into_table();
    }

    /// Total number of transactions across all sessions.
    pub fn transaction_count(&self) -> usize {
        self.sessions.iter().map(Vec::len).sum()
    }

    /// Total number of events across all sessions.
    pub fn event_count(&self) -> usize {
        self.sessions.iter().flatten().map(|t| t.events.len()).sum()
    }

    /// Serializes the history back to the version-1 JSON schema.
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        // An object of the members that are present.
        let object = |members: Vec<(&str, Option<Value>)>| {
            Value::Object(
                members
                    .into_iter()
                    .filter_map(|(name, value)| Some((name.to_string(), value?)))
                    .collect(),
            )
        };
        let event = |e: &Event| {
            object(vec![
                (
                    "op",
                    Some(Value::from(if e.is_write() { "w" } else { "r" })),
                ),
                ("key", Some(Value::from(self.key_name(e.key())))),
                ("value", Some(Value::from(e.value()))),
            ])
        };
        let transaction = |tx: &Transaction| {
            object(vec![
                ("id", Some(Value::from(tx.id))),
                (
                    "events",
                    Some(Value::Array(tx.events.iter().map(event).collect())),
                ),
            ])
        };
        let sessions = self
            .sessions
            .iter()
            .map(|session| Value::Array(session.iter().map(transaction).collect()));
        object(vec![
            ("format", Some(Value::from(FORMAT_TAG))),
            ("version", Some(Value::from(SCHEMA_VERSION))),
            ("name", self.name.as_deref().map(Value::from)),
            ("anomaly", self.anomaly.as_deref().map(Value::from)),
            ("expected", self.expected.map(|e| Value::from(e.as_str()))),
            ("sessions", Some(Value::Array(sessions.collect()))),
        ])
        .to_string()
    }

    /// Parses and validates a version-1 history document.
    ///
    /// The document is read once into a [`Tape`] whose strings borrow from
    /// `text`, then walked in place: no JSON value tree is built, and an
    /// error's context is formatted only when a check fails.
    ///
    /// # Errors
    ///
    /// Returns the [`HistoryError`] class describing the first problem
    /// found, in this order: the input size, JSON syntax anywhere in the
    /// document, the top-level members and limits, then per transaction its
    /// `id` (duplicates included) and `events`, per event its `key`,
    /// `value` and `op`, and last `name` and `anomaly`. Value-level validation
    /// (reads-from resolution) happens in [`crate::lower::lower`], which
    /// sees generated histories too.
    pub fn parse(text: &str) -> Result<History, HistoryError> {
        if text.len() > MAX_INPUT_BYTES {
            return Err(HistoryError::InputTooLarge { bytes: text.len() });
        }
        let tape = Tape::parse(text).map_err(|e| HistoryError::Json {
            message: e.message,
            offset: e.offset,
        })?;
        let [format, version, expected, sessions_doc, name, anomaly] = members(
            tape.root(),
            [
                "format", "version", "expected", "sessions", "name", "anomaly",
            ],
        )
        .ok_or_else(|| HistoryError::schema("top level must be an object"))?;
        match format.and_then(|v| v.as_str()) {
            Some(FORMAT_TAG) => {}
            Some(other) => {
                return Err(HistoryError::schema(format!(
                    "format must be {FORMAT_TAG:?}, got {other:?}"
                )))
            }
            None => return Err(HistoryError::schema("missing string member 'format'")),
        }
        let version = version
            .and_then(|v| v.as_u64())
            .ok_or_else(|| HistoryError::schema("missing integer member 'version'"))?;
        if version != SCHEMA_VERSION {
            return Err(HistoryError::UnknownVersion { found: version });
        }
        let expected = match expected.map(|v| v.as_str()) {
            None => None,
            Some(Some("serializable")) => Some(Expected::Serializable),
            Some(Some("violation")) => Some(Expected::Violation),
            Some(_) => {
                return Err(HistoryError::schema(
                    "'expected' must be \"serializable\" or \"violation\"",
                ))
            }
        };
        let sessions_doc = sessions_doc
            .and_then(|v| v.as_array())
            .ok_or_else(|| HistoryError::schema("missing array member 'sessions'"))?;
        if sessions_doc.len() > MAX_SESSIONS {
            return Err(HistoryError::TooManySessions {
                sessions: sessions_doc.len(),
            });
        }
        let mut sessions = Vec::with_capacity(sessions_doc.len());
        let mut seen_ids = std::collections::HashSet::new();
        let mut interner = Interner::default();
        for (si, session_doc) in sessions_doc.enumerate() {
            let txs_doc = session_doc.as_array().ok_or_else(|| {
                HistoryError::schema(format!("session {si} must be an array of transactions"))
            })?;
            if txs_doc.len() > MAX_TXS_PER_SESSION {
                return Err(HistoryError::TooManyTransactions {
                    session: si,
                    transactions: txs_doc.len(),
                });
            }
            let mut session = Vec::with_capacity(txs_doc.len());
            for (ti, tx_doc) in txs_doc.enumerate() {
                let at = || format!("session {si}, transaction {ti}");
                let [id, events_doc] = members(tx_doc, ["id", "events"])
                    .ok_or_else(|| HistoryError::schema(format!("{}: must be an object", at())))?;
                let id = id.and_then(|v| v.as_u64()).ok_or_else(|| {
                    HistoryError::schema(format!("{}: missing integer 'id'", at()))
                })?;
                if !seen_ids.insert(id) {
                    return Err(HistoryError::DuplicateTxId { id });
                }
                let events_doc = events_doc.and_then(|v| v.as_array()).ok_or_else(|| {
                    HistoryError::schema(format!("{}: missing array 'events'", at()))
                })?;
                if events_doc.len() > MAX_EVENTS_PER_TX {
                    return Err(HistoryError::TooManyEvents {
                        id,
                        events: events_doc.len(),
                    });
                }
                let mut events = Vec::with_capacity(events_doc.len());
                for (ei, ev_doc) in events_doc.enumerate() {
                    let fail =
                        |what: &str| HistoryError::schema(format!("{}, event {ei}: {what}", at()));
                    let [key, value, op] = members(ev_doc, ["key", "value", "op"])
                        .ok_or_else(|| fail("must be an object"))?;
                    let key = match key {
                        Some(v) => match (v.as_str(), v.as_u64()) {
                            (Some(s), _) => interner.id(s),
                            // dbcop uses integer variables; accept them as keys.
                            (None, Some(n)) => interner.id(n.to_string()),
                            (None, None) => return Err(fail("bad 'key'")),
                        },
                        None => return Err(fail("missing 'key'")),
                    };
                    let value = value
                        .and_then(|v| v.as_u64())
                        .ok_or_else(|| fail("missing integer 'value'"))?;
                    let event = match op.and_then(|v| v.as_str()) {
                        Some("r") | Some("read") => Event::Read { key, value },
                        Some("w") | Some("write") => Event::Write { key, value },
                        _ => return Err(fail("'op' must be \"r\" or \"w\"")),
                    };
                    events.push(event);
                }
                session.push(Transaction { id, events });
            }
            sessions.push(session);
        }
        let opt_string = |key: &str, v: Option<Cursor>| match v {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| HistoryError::schema(format!("'{key}' must be a string"))),
        };
        Ok(History {
            name: opt_string("name", name)?,
            anomaly: opt_string("anomaly", anomaly)?,
            expected,
            sessions,
            keys: interner.into_table(),
        })
    }
}

/// Numbers key names in order of first appearance. Names borrowed from the
/// input are not copied until [`Interner::into_table`].
#[derive(Default)]
struct Interner<'a>(HashMap<Cow<'a, str>, KeyId>);

impl<'a> Interner<'a> {
    /// The id of `name`, the next one if it is new.
    fn id(&mut self, name: impl Into<Cow<'a, str>>) -> KeyId {
        let next =
            KeyId(u32::try_from(self.0.len()).expect("the input limits keep the keys below 2^32"));
        *self.0.entry(name.into()).or_insert(next)
    }

    /// The key table: the names by id.
    fn into_table(self) -> Vec<String> {
        let mut keys = vec![String::new(); self.0.len()];
        for (name, id) in self.0 {
            keys[id.index()] = name.into_owned();
        }
        keys
    }
}

/// The members of `object` named by `keys`, found in one pass (of duplicate
/// keys the last wins), or `None` if it is not an object.
fn members<'t, 'a, const N: usize>(
    object: Cursor<'t, 'a>,
    keys: [&str; N],
) -> Option<[Option<Cursor<'t, 'a>>; N]> {
    let mut found = [None; N];
    for (key, value) in object.as_object()? {
        if let Some(i) = keys.iter().position(|k| *k == key) {
            found[i] = Some(value);
        }
    }
    Some(found)
}

/// Everything that can be wrong with a history file or its semantics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistoryError {
    /// The document is not valid JSON (includes truncated files).
    Json {
        /// Parser message.
        message: String,
        /// Byte offset of the failure.
        offset: usize,
    },
    /// The document is JSON but violates the schema (wrong format tag,
    /// missing or mistyped members).
    Schema(String),
    /// The file declares a schema version this build does not understand.
    UnknownVersion {
        /// The declared version.
        found: u64,
    },
    /// Two transactions share an id.
    DuplicateTxId {
        /// The repeated id.
        id: u64,
    },
    /// More sessions than [`MAX_SESSIONS`].
    TooManySessions {
        /// Declared session count.
        sessions: usize,
    },
    /// The document is longer than [`MAX_INPUT_BYTES`].
    InputTooLarge {
        /// Its length in bytes.
        bytes: usize,
    },
    /// A session has more than [`MAX_TXS_PER_SESSION`] transactions.
    TooManyTransactions {
        /// Index of the session.
        session: usize,
        /// Its transaction count.
        transactions: usize,
    },
    /// A transaction has more than [`MAX_EVENTS_PER_TX`] events.
    TooManyEvents {
        /// The transaction's id.
        id: u64,
        /// Its event count.
        events: usize,
    },
    /// The history touches more than [`MAX_KEYS`] distinct keys.
    TooManyKeys {
        /// Distinct keys found.
        keys: usize,
    },
    /// The history has no events at all.
    EmptyHistory,
    /// A write repeats a value on the same key (or writes the reserved
    /// initial value `0`), breaking reads-from recovery.
    DuplicateWriteValue {
        /// The key written.
        key: String,
        /// The repeated (or reserved) value.
        value: u64,
    },
    /// A read observes a nonzero value no write produced — including any
    /// nonzero read of a key that is never written.
    ReadOfUnwritten {
        /// The key read.
        key: String,
        /// The unexplainable value.
        value: u64,
    },
    /// No serialization of the events can explain every read (the greedy
    /// serializer wedged; see DESIGN.md "History import").
    Unrealizable {
        /// How many events were serialized before wedging.
        placed: usize,
        /// Total events.
        total: usize,
    },
}

impl HistoryError {
    fn schema(msg: impl Into<String>) -> Self {
        HistoryError::Schema(msg.into())
    }
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::Json { message, offset } => {
                write!(f, "invalid JSON at byte {offset}: {message}")
            }
            HistoryError::Schema(msg) => write!(f, "schema violation: {msg}"),
            HistoryError::UnknownVersion { found } => write!(
                f,
                "unknown schema version {found} (this build reads version {SCHEMA_VERSION})"
            ),
            HistoryError::DuplicateTxId { id } => write!(f, "duplicate transaction id {id}"),
            HistoryError::TooManySessions { sessions } => {
                write!(f, "{sessions} sessions exceeds the limit of {MAX_SESSIONS}")
            }
            HistoryError::InputTooLarge { bytes } => {
                write!(f, "{bytes} bytes of input exceeds the limit of {MAX_INPUT_BYTES}")
            }
            HistoryError::TooManyTransactions {
                session,
                transactions,
            } => write!(
                f,
                "{transactions} transactions in session {session} exceeds the limit of {MAX_TXS_PER_SESSION}"
            ),
            HistoryError::TooManyEvents { id, events } => write!(
                f,
                "{events} events in transaction {id} exceeds the limit of {MAX_EVENTS_PER_TX}"
            ),
            HistoryError::TooManyKeys { keys } => {
                write!(f, "{keys} distinct keys exceeds the limit of {MAX_KEYS}")
            }
            HistoryError::EmptyHistory => write!(f, "history contains no events"),
            HistoryError::DuplicateWriteValue { key, value } => {
                write!(
                    f,
                    "write of non-unique value {value} to key {key:?} (0 is reserved for the initial state)"
                )
            }
            HistoryError::ReadOfUnwritten { key, value } => {
                write!(f, "read of never-written value {value} on key {key:?}")
            }
            HistoryError::Unrealizable { placed, total } => write!(
                f,
                "no serialization explains every read (wedged after {placed} of {total} events)"
            ),
        }
    }
}

impl std::error::Error for HistoryError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn lost_update_json() -> String {
        r#"{
          "format": "dc-history",
          "version": 1,
          "name": "lost-update",
          "expected": "violation",
          "sessions": [
            [ {"id": 1, "events": [{"op": "r", "key": "x", "value": 0},
                                   {"op": "w", "key": "x", "value": 1}]} ],
            [ {"id": 2, "events": [{"op": "r", "key": "x", "value": 0},
                                   {"op": "w", "key": "x", "value": 2}]} ]
          ]
        }"#
        .to_string()
    }

    #[test]
    fn parses_a_well_formed_history() {
        let h = History::parse(&lost_update_json()).unwrap();
        assert_eq!(h.name.as_deref(), Some("lost-update"));
        assert_eq!(h.expected, Some(Expected::Violation));
        assert_eq!(h.sessions.len(), 2);
        assert_eq!(h.transaction_count(), 2);
        assert_eq!(h.event_count(), 4);
        assert_eq!(h.sessions[0][0].id, 1);
        assert_eq!(
            h.sessions[1][0].events[1],
            Event::Write {
                key: KeyId(0),
                value: 2
            }
        );
        assert_eq!(h.keys(), ["x"]);
    }

    #[test]
    fn json_round_trips_through_to_json() {
        let h = History::parse(&lost_update_json()).unwrap();
        let back = History::parse(&h.to_json()).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn truncated_json_is_a_json_error() {
        let text = lost_update_json();
        let truncated = &text[..text.len() / 2];
        assert!(matches!(
            History::parse(truncated),
            Err(HistoryError::Json { .. })
        ));
    }

    #[test]
    fn unknown_version_is_its_own_class() {
        let text = lost_update_json().replace("\"version\": 1", "\"version\": 99");
        assert_eq!(
            History::parse(&text),
            Err(HistoryError::UnknownVersion { found: 99 })
        );
    }

    #[test]
    fn duplicate_transaction_id_is_its_own_class() {
        let text = lost_update_json().replace("\"id\": 2", "\"id\": 1");
        assert_eq!(
            History::parse(&text),
            Err(HistoryError::DuplicateTxId { id: 1 })
        );
    }

    #[test]
    fn of_duplicate_members_the_last_wins() {
        let text = lost_update_json().replace("\"id\": 1,", "\"id\": \"one\", \"id\": 3,");
        assert_eq!(History::parse(&text).unwrap().sessions[0][0].id, 3);
        let text = lost_update_json().replace("\"id\": 1,", "\"id\": 3, \"id\": \"one\",");
        assert_eq!(
            History::parse(&text),
            Err(HistoryError::schema(
                "session 0, transaction 0: missing integer 'id'"
            ))
        );
    }

    #[test]
    fn wrong_format_tag_and_missing_members_are_schema_errors() {
        for text in [
            lost_update_json().replace("dc-history", "elle-history"),
            lost_update_json().replace("\"format\": \"dc-history\",", ""),
            lost_update_json().replace("\"version\": 1,", ""),
            lost_update_json().replace("\"op\": \"r\"", "\"op\": \"cas\""),
            lost_update_json().replace("\"expected\": \"violation\"", "\"expected\": \"maybe\""),
            "[1,2,3]".to_string(),
        ] {
            assert!(
                matches!(History::parse(&text), Err(HistoryError::Schema(_))),
                "expected schema error for: {text}"
            );
        }
    }

    #[test]
    fn too_many_sessions_is_rejected() {
        let one = r#"[{"id": ID, "events": [{"op": "w", "key": "x", "value": ID}]}]"#;
        let sessions: Vec<String> = (1..=(MAX_SESSIONS as u64 + 1))
            .map(|i| one.replace("ID", &i.to_string()))
            .collect();
        let text = format!(
            r#"{{"format": "dc-history", "version": 1, "sessions": [{}]}}"#,
            sessions.join(",")
        );
        assert_eq!(
            History::parse(&text),
            Err(HistoryError::TooManySessions {
                sessions: MAX_SESSIONS + 1
            })
        );
    }

    /// One session of `txs` transactions of `events` writes each, padded
    /// with trailing spaces to `bytes` bytes (0 = no padding).
    fn sized_json(txs: usize, events: usize, bytes: usize) -> String {
        let mut value = 0;
        let txs: Vec<String> = (1..=txs)
            .map(|id| {
                let events: Vec<String> = (0..events)
                    .map(|_| {
                        value += 1;
                        format!(r#"{{"op":"w","key":"x","value":{value}}}"#)
                    })
                    .collect();
                format!(r#"{{"id":{id},"events":[{}]}}"#, events.join(","))
            })
            .collect();
        let text = format!(
            r#"{{"format":"dc-history","version":1,"sessions":[[{}]]}}"#,
            txs.join(",")
        );
        let padding = " ".repeat(bytes.saturating_sub(text.len()));
        text + &padding
    }

    #[test]
    fn input_bytes_are_limited_before_parsing() {
        let at = sized_json(1, 1, MAX_INPUT_BYTES);
        assert_eq!(at.len(), MAX_INPUT_BYTES);
        assert_eq!(History::parse(&at).unwrap().event_count(), 1);
        // One byte more is rejected on its length alone: the text is not
        // even JSON.
        let over = "[".repeat(MAX_INPUT_BYTES + 1);
        assert_eq!(
            History::parse(&over),
            Err(HistoryError::InputTooLarge {
                bytes: MAX_INPUT_BYTES + 1
            })
        );
    }

    #[test]
    fn transactions_per_session_are_limited() {
        let at = History::parse(&sized_json(MAX_TXS_PER_SESSION, 1, 0)).unwrap();
        assert_eq!(at.transaction_count(), MAX_TXS_PER_SESSION);
        assert_eq!(
            History::parse(&sized_json(MAX_TXS_PER_SESSION + 1, 1, 0)),
            Err(HistoryError::TooManyTransactions {
                session: 0,
                transactions: MAX_TXS_PER_SESSION + 1
            })
        );
    }

    #[test]
    fn events_per_transaction_are_limited() {
        let at = History::parse(&sized_json(1, MAX_EVENTS_PER_TX, 0)).unwrap();
        assert_eq!(at.event_count(), MAX_EVENTS_PER_TX);
        assert_eq!(
            History::parse(&sized_json(1, MAX_EVENTS_PER_TX + 1, 0)),
            Err(HistoryError::TooManyEvents {
                id: 1,
                events: MAX_EVENTS_PER_TX + 1
            })
        );
    }

    #[test]
    fn integer_keys_are_accepted_like_dbcop() {
        let text = r#"{
          "format": "dc-history",
          "version": 1,
          "sessions": [[ {"id": 1, "events": [{"op": "w", "key": 7, "value": 1},
                                              {"op": "r", "key": "7", "value": 1},
                                              {"op": "r", "key": "y", "value": 0}]} ]]
        }"#;
        let h = History::parse(text).unwrap();
        // The integer and the string name one key, interned once.
        assert_eq!(h.keys(), ["7", "y"]);
        let keys: Vec<KeyId> = h.sessions[0][0].events.iter().map(Event::key).collect();
        assert_eq!(keys, [KeyId(0), KeyId(0), KeyId(1)]);
        assert_eq!(h.key_name(keys[2]), "y");
    }

    #[test]
    fn error_display_is_informative() {
        let shown = format!(
            "{}",
            HistoryError::ReadOfUnwritten {
                key: "x".into(),
                value: 9
            }
        );
        assert!(shown.contains("never-written"), "{shown}");
        assert!(format!("{}", HistoryError::UnknownVersion { found: 3 }).contains("version 3"),);
        // Every limit names the offending number and the limit.
        for (err, number, limit) in [
            (
                HistoryError::InputTooLarge { bytes: 7 },
                "7 bytes",
                MAX_INPUT_BYTES,
            ),
            (
                HistoryError::TooManyTransactions {
                    session: 2,
                    transactions: 7,
                },
                "7 transactions in session 2",
                MAX_TXS_PER_SESSION,
            ),
            (
                HistoryError::TooManyEvents { id: 5, events: 7 },
                "7 events in transaction 5",
                MAX_EVENTS_PER_TX,
            ),
            (
                HistoryError::TooManyKeys { keys: 7 },
                "7 distinct keys",
                MAX_KEYS,
            ),
        ] {
            let shown = err.to_string();
            assert!(
                shown.contains(number) && shown.contains(&limit.to_string()),
                "{shown}"
            );
        }
    }
}
