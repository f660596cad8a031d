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

use serde_json::{Error as JsonError, Kind, Reader};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
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
    /// index `names`, a distinct name each: the keys are renumbered in order
    /// of first appearance, and a name no event uses is dropped.
    pub(crate) fn intern_keys<S: Default + Into<String>>(&mut self, mut names: Vec<S>) {
        let mut ids: Vec<Option<KeyId>> = vec![None; names.len()];
        let mut keys = Vec::with_capacity(names.len());
        for tx in self.sessions.iter_mut().flatten() {
            for Event::Read { key, .. } | Event::Write { key, .. } in &mut tx.events {
                let k = key.index();
                *key = *ids[k].get_or_insert_with(|| {
                    // At most one key per provisional id, so the count fits a `u32`.
                    keys.push(std::mem::take(&mut names[k]).into());
                    KeyId(keys.len() as u32 - 1)
                });
            }
        }
        self.keys = keys;
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
    /// The document is read once, by a [`Reader`] whose strings borrow from
    /// `text`, and the sessions, transactions and events are built as it
    /// goes: no JSON value tree is built, and an error's context is
    /// formatted only when a check fails.
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
        let mut reader = Reader::new(text);
        let history = document(&mut reader);
        // A schema error waits for the end of the document, so that a JSON
        // syntax error anywhere wins over it.
        let history = history.and_then(|history| reader.finish().map(|()| history));
        history.map_err(|e| HistoryError::Json {
            message: e.message,
            offset: e.offset,
        })?
    }
}

/// A value read from the document: a JSON syntax error stops the reading
/// (the outer `Err`); a schema error is found when its container closes
/// and waits for the document's end (the inner one).
type Read<T> = Result<Result<T, HistoryError>, JsonError>;

/// An array read by [`elements`]: its length and the first error inside it,
/// or `None` if the value was not an array.
type ArrayRead = Option<(usize, Result<(), HistoryError>)>;

/// Reads an array's elements with `element` (given each one's index) until
/// one fails or the count passes `limit`; the rest are skipped but counted.
/// A container checks its own type and count when it closes, and those
/// checks win over the first error deferred from inside it.
fn elements<'a>(
    r: &mut Reader<'a>,
    limit: usize,
    mut element: impl FnMut(&mut Reader<'a>, usize) -> Read<()>,
) -> Result<ArrayRead, JsonError> {
    if !r.array()? {
        return Ok(None);
    }
    let (mut len, mut first) = (0, Ok(()));
    while r.element()? {
        if first.is_ok() && len < limit {
            first = element(r, len)?;
        } else {
            r.skip()?;
        }
        len += 1;
    }
    Ok(Some((len, first)))
}

/// The top-level object. Of duplicate members the last wins; a `sessions`
/// member is read by a [`Builder`] of its own, so a discarded copy's
/// transaction ids and keys do not count.
fn document(r: &mut Reader<'_>) -> Read<History> {
    if !r.object()? {
        return Ok(Err(HistoryError::schema("top level must be an object")));
    }
    let (mut format, mut version, mut sessions) = (None, None, None);
    let (mut expected, mut name, mut anomaly) = (Ok(None), Ok(None), Ok(None));
    // An optional string member: its text, or that it is not a string.
    let text = |r: &mut Reader<'_>, key: &str| {
        let text = r.string()?.map(Cow::into_owned);
        let fail = || HistoryError::schema(format!("'{key}' must be a string"));
        Ok::<_, JsonError>(text.map(Some).ok_or_else(fail))
    };
    while let Some(key) = r.key()? {
        match &*key {
            "format" => format = r.string()?,
            "version" => version = r.u64()?,
            "expected" => {
                expected = match r.string()?.as_deref() {
                    Some("serializable") => Ok(Some(Expected::Serializable)),
                    Some("violation") => Ok(Some(Expected::Violation)),
                    _ => Err(HistoryError::schema(
                        "'expected' must be \"serializable\" or \"violation\"",
                    )),
                }
            }
            "sessions" => sessions = Some(Builder::default().sessions(r)?),
            "name" => name = text(r, "name")?,
            "anomaly" => anomaly = text(r, "anomaly")?,
            _ => r.skip()?,
        }
    }
    let check = || {
        let format =
            format.ok_or_else(|| HistoryError::schema("missing string member 'format'"))?;
        if format != FORMAT_TAG {
            let message = format!("format must be {FORMAT_TAG:?}, got {format:?}");
            return Err(HistoryError::schema(message));
        }
        let version =
            version.ok_or_else(|| HistoryError::schema("missing integer member 'version'"))?;
        if version != SCHEMA_VERSION {
            return Err(HistoryError::UnknownVersion { found: version });
        }
        let expected = expected?;
        let history = sessions
            .unwrap_or_else(|| Err(HistoryError::schema("missing array member 'sessions'")))?;
        Ok(History {
            name: name?,
            anomaly: anomaly?,
            expected,
            ..history
        })
    };
    Ok(check())
}

/// Builds the sessions of one `sessions` member as they are read. An event
/// names its key by a provisional id, in order of first reading, which a
/// discarded duplicate member may have disturbed; [`History::intern_keys`]
/// renumbers them once at the end.
#[derive(Default)]
struct Builder<'a> {
    /// Key names by provisional id.
    interner: Interner<'a>,
    /// The ids of the transactions read so far.
    ids: HashSet<u64>,
    /// The transactions of the session being read.
    txs: Vec<Transaction>,
    /// The events of the `events` member being read.
    events: Vec<Event>,
}

impl<'a> Builder<'a> {
    /// A history of the sessions and their key table.
    fn sessions(mut self, r: &mut Reader<'a>) -> Read<History> {
        let mut sessions = Vec::new();
        let read = elements(r, MAX_SESSIONS, |r, si| {
            Ok(self.session(r, si)?.map(|session| sessions.push(session)))
        })?;
        Ok(match read {
            None => Err(HistoryError::schema("missing array member 'sessions'")),
            Some((len, _)) if len > MAX_SESSIONS => {
                Err(HistoryError::TooManySessions { sessions: len })
            }
            Some((_, first)) => first.map(|()| {
                let mut history = History {
                    sessions,
                    ..History::default()
                };
                history.intern_keys(self.interner.into_names());
                history
            }),
        })
    }

    /// Session `si`'s transactions.
    fn session(&mut self, r: &mut Reader<'a>, si: usize) -> Read<Vec<Transaction>> {
        self.txs.clear();
        let read = elements(r, MAX_TXS_PER_SESSION, |r, ti| {
            Ok(self.transaction(r, si, ti)?.map(|tx| self.txs.push(tx)))
        })?;
        Ok(match read {
            None => Err(HistoryError::schema(format!(
                "session {si} must be an array of transactions"
            ))),
            Some((len, _)) if len > MAX_TXS_PER_SESSION => Err(HistoryError::TooManyTransactions {
                session: si,
                transactions: len,
            }),
            Some((_, first)) => first.map(|()| self.txs.drain(..).collect()),
        })
    }

    /// Transaction `ti` of session `si`.
    fn transaction(&mut self, r: &mut Reader<'a>, si: usize, ti: usize) -> Read<Transaction> {
        let fail =
            |what: &str| HistoryError::schema(format!("session {si}, transaction {ti}{what}"));
        if !r.object()? {
            return Ok(Err(fail(": must be an object")));
        }
        let (mut id, mut events) = (None, None);
        while let Some(key) = r.key()? {
            match &*key {
                "id" => id = r.u64()?,
                "events" => {
                    self.events.clear();
                    events = elements(r, MAX_EVENTS_PER_TX, |r, ei| {
                        let event = self.event(r)?.map(|e| self.events.push(e));
                        Ok(event.map_err(|what| fail(&format!(", event {ei}: {what}"))))
                    })?;
                }
                _ => r.skip()?,
            }
        }
        let Some(id) = id else {
            return Ok(Err(fail(": missing integer 'id'")));
        };
        if !self.ids.insert(id) {
            return Ok(Err(HistoryError::DuplicateTxId { id }));
        }
        Ok(match events {
            None => Err(fail(": missing array 'events'")),
            Some((len, _)) if len > MAX_EVENTS_PER_TX => {
                Err(HistoryError::TooManyEvents { id, events: len })
            }
            Some((_, first)) => first.map(|()| Transaction {
                id,
                events: self.events.drain(..).collect(),
            }),
        })
    }

    /// One event, or what is wrong with it.
    fn event(&mut self, r: &mut Reader<'a>) -> Result<Result<Event, &'static str>, JsonError> {
        if !r.object()? {
            return Ok(Err("must be an object"));
        }
        let (mut key, mut value, mut write) = (None, None, None);
        while let Some(member) = r.key()? {
            match &*member {
                "key" => {
                    key = Some(match r.peek()? {
                        Kind::String => r.string()?.map(|name| self.interner.id(name)),
                        // dbcop uses integer variables; accept them as keys.
                        _ => r.u64()?.map(|n| self.interner.id(n.to_string())),
                    })
                }
                "value" => value = r.u64()?,
                "op" => {
                    write = match r.string()?.as_deref() {
                        Some("r" | "read") => Some(false),
                        Some("w" | "write") => Some(true),
                        _ => None,
                    }
                }
                _ => r.skip()?,
            }
        }
        let check = || {
            let key = key.ok_or("missing 'key'")?.ok_or("bad 'key'")?;
            let value = value.ok_or("missing integer 'value'")?;
            match write.ok_or("'op' must be \"r\" or \"w\"")? {
                false => Ok(Event::Read { key, value }),
                true => Ok(Event::Write { key, value }),
            }
        };
        Ok(check())
    }
}

/// Numbers key names in order of first appearance. Names borrowed from the
/// input are not copied.
///
/// Names are untrusted input, so the table is the std (SipHash) one. A
/// history repeats a few keys in every event, so a name is first looked for
/// in a small cache of the names last interned, one per slot by the sum of
/// its bytes: on a hit it is not hashed, and a crafted name misses at the
/// cost of one comparison.
#[derive(Default)]
struct Interner<'a> {
    ids: HashMap<Cow<'a, str>, KeyId>,
    recent: [Option<(Cow<'a, str>, KeyId)>; 32],
}

impl<'a> Interner<'a> {
    /// The id of `name`, the next one if it is new.
    fn id(&mut self, name: impl Into<Cow<'a, str>>) -> KeyId {
        let name = name.into();
        let slot = name.bytes().fold(name.len(), |h, b| h + usize::from(b)) % 32;
        match &self.recent[slot] {
            Some((seen, id)) if *seen == name => *id,
            _ => {
                let next = KeyId(
                    u32::try_from(self.ids.len())
                        .expect("the input limits keep the keys below 2^32"),
                );
                let id = *self.ids.entry(name.clone()).or_insert(next);
                self.recent[slot] = Some((name, id));
                id
            }
        }
    }

    /// The names by id.
    fn into_names(self) -> Vec<Cow<'a, str>> {
        let mut names = vec![Cow::Borrowed(""); self.ids.len()];
        for (name, id) in self.ids {
            names[id.index()] = name;
        }
        names
    }
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
