//! A client's calls into the engine's public `TransactionalRTree` trait,
//! with the engine's errors sorted into what the client does next.

use dgl_core::{ObjectId, ScanHit, TransactionalRTree, TxnError, TxnId};
use dgl_geom::Rect2;

/// Why a call did not succeed.
#[derive(Debug)]
pub enum Fail {
    /// The transaction was rolled back (deadlock or timeout victim);
    /// running it again is expected to succeed.
    Retry,
    /// The inserted id is still reserved by an uncommitted delete.
    Duplicate,
    /// Anything else: a fault of the engine.
    Fatal(String),
}

impl std::fmt::Display for Fail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fail::Retry => write!(f, "rolled back, retryable"),
            Fail::Duplicate => write!(f, "duplicate object id"),
            Fail::Fatal(e) => write!(f, "{e}"),
        }
    }
}

pub type Res<T> = Result<T, Fail>;

fn from_txn(e: TxnError) -> Fail {
    match e {
        TxnError::DuplicateObject => Fail::Duplicate,
        e if e.is_retryable() => Fail::Retry,
        e => Fail::Fatal(e.to_string()),
    }
}

/// In-process calls through the engine's public trait.
pub struct InProc<'a>(pub &'a dyn TransactionalRTree);

impl InProc<'_> {
    pub fn begin(&mut self) -> Res<u64> {
        Ok(self.0.begin().0)
    }
    pub fn insert(&mut self, txn: u64, oid: u64, rect: Rect2) -> Res<()> {
        self.0
            .insert(TxnId(txn), ObjectId(oid), rect)
            .map_err(from_txn)
    }
    pub fn delete(&mut self, txn: u64, oid: u64, rect: Rect2) -> Res<bool> {
        self.0
            .delete(TxnId(txn), ObjectId(oid), rect)
            .map_err(from_txn)
    }
    pub fn update(&mut self, txn: u64, oid: u64, rect: Rect2) -> Res<bool> {
        self.0
            .update_single(TxnId(txn), ObjectId(oid), rect)
            .map_err(from_txn)
    }
    pub fn read_single(&mut self, txn: u64, oid: u64, rect: Rect2) -> Res<Option<u64>> {
        self.0
            .read_single(TxnId(txn), ObjectId(oid), rect)
            .map_err(from_txn)
    }
    pub fn read_scan(&mut self, txn: u64, query: Rect2) -> Res<Vec<ScanHit>> {
        self.0.read_scan(TxnId(txn), query).map_err(from_txn)
    }
    pub fn commit(&mut self, txn: u64) -> Res<()> {
        self.0.commit(TxnId(txn)).map_err(from_txn)
    }
    /// Ends a transaction that will not commit; errors are of no use here
    /// (a rolled-back transaction is already gone).
    pub fn abort(&mut self, txn: u64) {
        let _ = self.0.abort(TxnId(txn));
    }
}
