//! SQL compilation: text → [`Logical`] → physical [`QueryPlan`].
//!
//! The `uot-sql` crate owns lexing, parsing and binding; this module owns
//! the last mile, lowering the fully resolved [`Logical`] tree onto the
//! engine's operator algebra via [`PlanBuilder`]. The walk is mechanical —
//! every logical node maps to exactly one physical operator (a join maps to
//! its build + probe pair) — so a SQL statement and a hand-constructed plan
//! produce the same operator pipeline and byte-identical results.
//!
//! [`compile`] is the one-call front door. `compile_cached` memoizes it
//! through a [`PlanCache`] and is the one SQL compile step of both
//! [`Engine::execute_sql`](crate::engine::Engine::execute_sql) and
//! [`QueryService::submit_sql`](crate::service::QueryService::submit_sql).

use crate::plan::{JoinType, PlanBuilder, QueryPlan, SortKey, Source};
use crate::Result;
use uot_expr::Predicate;
use uot_sql::{JoinKind, Logical, PlanCache, PlanCacheOutcome};
use uot_storage::Catalog;

/// Compile `sql` against `catalog` into an executable physical plan.
///
/// Frontend failures (lex/parse/bind) surface as [`EngineError::Sql`](crate::error::EngineError::Sql) with a
/// byte-span into `sql`; lowering itself cannot fail on binder-produced
/// trees, but plan-builder invariant violations would surface as their usual
/// [`EngineError`](crate::error::EngineError) variants.
pub fn compile(sql: &str, catalog: &Catalog) -> Result<QueryPlan> {
    let logical = uot_sql::plan(sql, catalog)?;
    lower(&logical)
}

/// Compile `sql` through `cache`: strip a leading `EXPLAIN ANALYZE`, then
/// fetch the inner statement's plan or compile and memoize it. Returns the
/// plan, whether the cache had it, and whether the text asked for
/// `EXPLAIN ANALYZE`.
pub(crate) fn compile_cached(
    sql: &str,
    catalog: &Catalog,
    cache: &PlanCache<QueryPlan>,
) -> Result<(QueryPlan, PlanCacheOutcome, bool)> {
    let (sql, explain) = match uot_sql::strip_explain_analyze(sql) {
        Some(inner) => (inner, true),
        None => (sql, false),
    };
    let (plan, outcome) = cache.get_or_compile(sql, || compile(sql, catalog))?;
    Ok(((*plan).clone(), outcome, explain))
}

/// Lower a resolved logical tree onto the physical operator algebra.
pub fn lower(logical: &Logical) -> Result<QueryPlan> {
    let mut pb = PlanBuilder::new();
    let sink = match lower_node(logical, &mut pb)? {
        Source::Op(id) => id,
        // The binder wraps bare scans in an identity select, but lower a
        // stray table source defensively rather than panicking.
        src @ Source::Table(_) => pb.filter(src, Predicate::True)?,
    };
    pb.build(sink)
}

fn lower_node(node: &Logical, pb: &mut PlanBuilder) -> Result<Source> {
    Ok(match node {
        Logical::Scan { table } => Source::Table(table.clone()),
        Logical::Select {
            input,
            predicate,
            projections,
            schema,
        } => {
            let src = lower_node(input, pb)?;
            let names: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
            Source::Op(pb.select(src, predicate.clone(), projections.clone(), &names)?)
        }
        Logical::Filter { input, predicate } => {
            let src = lower_node(input, pb)?;
            Source::Op(pb.filter(src, predicate.clone())?)
        }
        Logical::Join {
            probe,
            build,
            probe_keys,
            build_keys,
            probe_out,
            build_payload,
            kind,
            ..
        } => {
            // Build side first: probe work orders only release once the hash
            // table exists, and builder ids are assigned bottom-up.
            let build_src = lower_node(build, pb)?;
            let b = pb.build_hash(build_src, build_keys.clone(), build_payload.clone())?;
            let probe_src = lower_node(probe, pb)?;
            let (join, build_out) = match kind {
                JoinKind::Inner => (JoinType::Inner, (0..build_payload.len()).collect()),
                JoinKind::Semi => (JoinType::Semi, Vec::new()),
                JoinKind::Anti => (JoinType::Anti, Vec::new()),
            };
            Source::Op(pb.probe(
                probe_src,
                b,
                probe_keys.clone(),
                probe_out.clone(),
                build_out,
                join,
            )?)
        }
        Logical::Aggregate {
            input,
            group_by,
            aggs,
            agg_names,
            ..
        } => {
            let src = lower_node(input, pb)?;
            let names: Vec<&str> = agg_names.iter().map(String::as_str).collect();
            Source::Op(pb.aggregate(src, group_by.clone(), aggs.clone(), &names)?)
        }
        Logical::Sort { input, keys, limit } => {
            let src = lower_node(input, pb)?;
            let keys = keys
                .iter()
                .map(|k| {
                    if k.desc {
                        SortKey::desc(k.col)
                    } else {
                        SortKey::asc(k.col)
                    }
                })
                .collect();
            Source::Op(pb.sort(src, keys, *limit)?)
        }
        Logical::Limit { input, n } => {
            let src = lower_node(input, pb)?;
            Source::Op(pb.limit(src, *n)?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::error::EngineError;
    use std::sync::Arc;
    use uot_storage::{BlockFormat, DataType, Schema, TableBuilder, Value};

    fn catalog() -> Arc<Catalog> {
        let c = Catalog::new();
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
        let mut tb = TableBuilder::new("fact", s, BlockFormat::Column, 96);
        for i in 0..200 {
            tb.append(&[Value::I32(i % 20), Value::F64(i as f64)])
                .unwrap();
        }
        c.register(tb.finish()).unwrap();
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("name", DataType::Char(8))]);
        let mut tb = TableBuilder::new("dim", s, BlockFormat::Column, 1024);
        for i in 0..20 {
            tb.append(&[Value::I32(i), Value::Str(format!("n{i:02}"))])
                .unwrap();
        }
        c.register(tb.finish()).unwrap();
        c
    }

    #[test]
    fn compile_and_execute_filter_aggregate() {
        let cat = catalog();
        let plan = compile(
            "SELECT k, count(*) AS n, sum(v) AS s FROM fact WHERE k < 3 GROUP BY k ORDER BY k",
            &cat,
        )
        .unwrap();
        let r = Engine::new(EngineConfig::serial()).execute(plan).unwrap();
        let rows = r.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::I32(0));
        assert_eq!(rows[0][1], Value::I64(10));
        let expect: f64 = (0..200).filter(|i| i % 20 == 0).map(|i| i as f64).sum();
        assert_eq!(rows[0][2], Value::F64(expect));
    }

    #[test]
    fn compile_and_execute_join() {
        let cat = catalog();
        let plan = compile(
            "SELECT name, count(*) AS n FROM fact, dim \
             WHERE fact.k = dim.k AND fact.k < 2 GROUP BY name ORDER BY name",
            &cat,
        )
        .unwrap();
        let r = Engine::new(EngineConfig::serial()).execute(plan).unwrap();
        let rows = r.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Str("n00".into()));
        assert_eq!(rows[0][1], Value::I64(10));
    }

    #[test]
    fn semi_join_executes() {
        let cat = catalog();
        let plan = compile(
            "SELECT count(*) AS n FROM dim WHERE k IN (SELECT k FROM fact WHERE v < 5.0)",
            &cat,
        )
        .unwrap();
        let r = Engine::new(EngineConfig::serial()).execute(plan).unwrap();
        // v < 5.0 keeps fact rows 0..5 with k = 0..5.
        assert_eq!(r.rows(), vec![vec![Value::I64(5)]]);
    }

    #[test]
    fn frontend_errors_surface_as_engine_sql_errors() {
        let cat = catalog();
        let e = compile("SELECT nope FROM fact", &cat).unwrap_err();
        match e {
            EngineError::Sql(pe) => {
                assert_eq!(pe.kind, uot_sql::PlanErrorKind::UnknownColumn);
                assert!(pe.span.is_some());
            }
            other => panic!("expected Sql error, got {other}"),
        }
    }
}
