//! A pass-through filter backend that times every call the service makes
//! into the filter layer.

use crate::trace::Tracer;
use filter_core::{
    BulkDeletable, BulkFilter, DeleteOutcome, Features, FilterError, FilterMeta, InsertOutcome,
};
use std::sync::Arc;

/// Span names of the wrapped layer's three bulk calls.
#[derive(Debug, Clone, Copy)]
pub struct CallNames {
    pub insert: &'static str,
    pub query: &'static str,
    pub delete: &'static str,
}

/// Span names for a TCF backend.
pub const TCF: CallNames =
    CallNames { insert: "tcf.insert", query: "tcf.query", delete: "tcf.delete" };

/// Span names for a GQF.
pub const GQF: CallNames =
    CallNames { insert: "gqf.insert", query: "gqf.query", delete: "gqf.delete" };

/// Wraps `inner`, delegating every call unchanged and recording one span
/// per bulk call.
pub struct Timed<B> {
    inner: B,
    tracer: Arc<Tracer>,
    names: CallNames,
}

impl<B> Timed<B> {
    pub fn new(inner: B, tracer: Arc<Tracer>, names: CallNames) -> Self {
        Timed { inner, tracer, names }
    }
}

impl<B: FilterMeta> FilterMeta for Timed<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn features(&self) -> Features {
        self.inner.features()
    }
    fn table_bytes(&self) -> usize {
        self.inner.table_bytes()
    }
    fn capacity_slots(&self) -> u64 {
        self.inner.capacity_slots()
    }
    fn max_load_factor(&self) -> f64 {
        self.inner.max_load_factor()
    }
}

impl<B: BulkFilter> BulkFilter for Timed<B> {
    fn bulk_insert_report(
        &self,
        keys: &[u64],
        out: &mut [InsertOutcome],
    ) -> Result<(), FilterError> {
        let n = keys.len() as u64;
        self.tracer.span(self.names.insert, 0, n, || self.inner.bulk_insert_report(keys, out))
    }

    fn bulk_insert(&self, keys: &[u64]) -> Result<usize, FilterError> {
        let n = keys.len() as u64;
        self.tracer.span(self.names.insert, 0, n, || self.inner.bulk_insert(keys))
    }

    fn bulk_query(&self, keys: &[u64], out: &mut [bool]) {
        let n = keys.len() as u64;
        self.tracer.span(self.names.query, 0, n, || self.inner.bulk_query(keys, out))
    }
}

impl<B: BulkDeletable> BulkDeletable for Timed<B> {
    fn bulk_delete_report(
        &self,
        keys: &[u64],
        out: &mut [DeleteOutcome],
    ) -> Result<(), FilterError> {
        let n = keys.len() as u64;
        self.tracer.span(self.names.delete, 0, n, || self.inner.bulk_delete_report(keys, out))
    }

    fn bulk_delete(&self, keys: &[u64]) -> Result<usize, FilterError> {
        let n = keys.len() as u64;
        self.tracer.span(self.names.delete, 0, n, || self.inner.bulk_delete(keys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Keys, Stream};
    use filter_core::FilterSpec;
    use tcf::BulkTcf;

    #[test]
    fn timed_backend_answers_exactly_like_the_bare_filter() {
        let spec = FilterSpec::items(1 << 12);
        let bare = BulkTcf::from_spec(&spec).unwrap();
        let tracer = Arc::new(Tracer::new(true));
        let timed = Timed::new(BulkTcf::from_spec(&spec).unwrap(), Arc::clone(&tracer), TCF);
        let keys = Keys::new(9);
        // Load past capacity so some inserts fail and the outcomes differ
        // from key to key.
        let ins = keys.range(Stream::Churn, 0, 40_000);
        let mut a = vec![InsertOutcome::Inserted; ins.len()];
        let mut b = a.clone();
        bare.bulk_insert_report(&ins, &mut a).unwrap();
        timed.bulk_insert_report(&ins, &mut b).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().any(|o| *o != InsertOutcome::Inserted));
        let mut probe = ins[..5000].to_vec();
        probe.extend(keys.range(Stream::Absent, 0, 5000));
        assert_eq!(bare.bulk_query_vec(&probe), timed.bulk_query_vec(&probe));
        let mut da = vec![DeleteOutcome::NotFound; probe.len()];
        let mut db = da.clone();
        bare.bulk_delete_report(&probe, &mut da).unwrap();
        timed.bulk_delete_report(&probe, &mut db).unwrap();
        assert_eq!(da, db);
        assert_eq!(bare.bulk_query_vec(&ins), timed.bulk_query_vec(&ins));
        assert_eq!(bare.table_bytes(), timed.table_bytes());
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["tcf.insert", "tcf.query", "tcf.delete", "tcf.query"]);
    }
}
