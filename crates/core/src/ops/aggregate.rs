//! Hash aggregation: streamed updates into per-worker group tables plus a
//! finalize merge.
//!
//! A stream work order checks a [`GroupTable`] out of the operator's free
//! list (`OpRuntime::agg_tables`, the way [`ExecContext::take_scratch`]
//! pools scratch buffers), folds its block in, and puts the table back.
//! There is therefore one table per concurrently running work order — one
//! in serial mode, at most `workers` under a pool — and no synchronization
//! on the hot path. The single finalize work order merges those tables and
//! emits the result blocks: the parallel-aggregation shape of block-based
//! engines like Quickstep, with partials per worker instead of per block.
//!
//! Per block the vectorized pipeline runs three typed passes:
//!
//! 1. the operator's compiled [`KeyExtractor`](uot_storage::KeyExtractor)
//!    fills a [`KeyBatch`] with packed keys and Fx hashes (the join key
//!    pipeline);
//! 2. a find-or-insert pass over the group table's open-addressing slots
//!    (the join table's probing and growth rules, `hash_table::OpenSlot`)
//!    writes one `u32` group id per row into
//!    [`Scratch::group_ids`](crate::state::Scratch);
//! 3. every aggregate updates its columnar accumulator with one tight loop
//!    over `(group_id[i], arg[i])`.
//!
//! Group keys are stored once per group in their packed encoding; float
//! sums use [`CompactF64Sum`], which keeps [`uot_expr::ExactF64Sum`]'s
//! exact, partition-invariant result in 32 bytes per group. Finalize sorts
//! group ids by key in the `cmp_value_rows` order and emits the same rows
//! into the same blocks as the scalar reference.
//!
//! [`execute_block_scalar`] / [`execute_finalize_scalar`] keep the earlier
//! per-block `HashMap` + [`AggState`](uot_expr::AggState) implementation as
//! the reference the property tests diff against.

use crate::error::EngineError;
use crate::hash_table::{
    grow_slots, needs_grow, prefetch_read, probe_slot, OpenSlot, NIL, PREFETCH_DIST,
};
use crate::ops::builders::{into_virtual_block, make_builders, ColBuilder};
use crate::plan::OperatorKind;
use crate::state::{AggPartial, ExecContext, GroupEntry};
use crate::Result;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use uot_expr::{
    float_extreme, gather_from, int_sum_result, AggFunc, AggSpec, CompactF64Sum, ExprError,
    ScalarExpr,
};
use uot_storage::{
    hash_key::FxBuildHasher, ColumnData, DataType, HashKey, KeyBatch, Schema, StorageBlock, Value,
};

/// The group-by columns and aggregates of operator `op`.
fn agg_spec<'a>(
    ctx: &'a ExecContext,
    op: usize,
    what: &str,
) -> Result<(&'a [usize], &'a [AggSpec])> {
    match &ctx.plan.op(op).kind {
        OperatorKind::Aggregate { group_by, aggs, .. } => Ok((group_by, aggs)),
        other => Err(EngineError::Internal(format!(
            "{what} on {}",
            other.kind_label()
        ))),
    }
}

/// The error for an aggregate result that does not fit its output type.
fn overflow(ctx: &ExecContext, op: usize, e: ExprError) -> EngineError {
    EngineError::Overflow {
        op: ctx.plan.op(op).name.clone(),
        detail: e.to_string(),
    }
}

/// Aggregate one input block into a group table checked out of the
/// operator's free list.
pub fn execute_block(
    ctx: &ExecContext,
    op: usize,
    block: &Arc<StorageBlock>,
) -> Result<Vec<StorageBlock>> {
    let (group_by, aggs) = agg_spec(ctx, op, "aggregate work order")?;
    if block.num_rows() == 0 {
        return Ok(Vec::new());
    }
    // Evaluate every aggregate argument once over the whole block; a bare
    // column of a column-store block is read in place.
    let args: Vec<Option<Cow<'_, ColumnData>>> = aggs
        .iter()
        .map(|a| match &a.arg {
            None => Ok(None),
            Some(ScalarExpr::Col(c)) if block.column_data(*c).is_some() => {
                Ok(block.column_data(*c).map(Cow::Borrowed))
            }
            Some(e) => e.eval_all(block).map(|d| Some(Cow::Owned(d))),
        })
        .collect::<std::result::Result<_, _>>()?;

    let runtime = &ctx.runtimes[op];
    let popped = runtime.agg_tables.lock().pop();
    let mut table = match popped {
        Some(t) => t,
        None => GroupTable::new(&ctx.plan.input_schema(op), group_by, aggs)?,
    };
    let mut scratch = ctx.take_scratch();
    if group_by.is_empty() {
        table.assign_single(block.num_rows(), &mut scratch.group_ids);
    } else {
        ctx.key_extractor(op)
            .extract_block(block, &mut scratch.keys);
        table.assign_groups(&scratch.keys, &mut scratch.group_ids)?;
    }
    let updated = table.update(&scratch.group_ids, &args);
    ctx.put_scratch(scratch);
    // The table goes back even on error; the query is failing either way.
    runtime.agg_tables.lock().push(table);
    updated?;
    Ok(Vec::new())
}

/// Merge the operator's group tables and emit the result blocks, one row
/// per group in group-key order.
pub fn execute_finalize(ctx: &ExecContext, op: usize) -> Result<Vec<StorageBlock>> {
    let (group_by, aggs) = agg_spec(ctx, op, "aggregate finalize")?;
    let tables: Vec<GroupTable> = std::mem::take(&mut *ctx.runtimes[op].agg_tables.lock());
    let mut merged: Option<GroupTable> = None;
    for table in tables {
        // The single finalize merges every table: honor cancellation once
        // per table (and per emitted block below).
        ctx.check_cancelled()?;
        match &mut merged {
            None => merged = Some(table),
            Some(m) => m.merge(&table),
        }
    }
    let mut table = match merged {
        Some(t) => t,
        None => GroupTable::new(&ctx.plan.input_schema(op), group_by, aggs)?,
    };
    // SQL semantics: a scalar aggregate over zero rows still yields one row.
    if group_by.is_empty() && table.groups() == 0 {
        table.assign_single(0, &mut Vec::new());
    }
    let out = table
        .into_output(&ctx.plan.op(op).out_schema)
        .map_err(|e| match e {
            EngineError::Expr(e @ ExprError::Overflow { .. }) => overflow(ctx, op, e),
            other => other,
        })?;
    crate::ops::emit_block_rows(ctx, op, &out)
}

/// One slot of a [`GroupTable`]: a group id plus 32 more bits of its key's
/// hash to skip most key comparisons (`gid == NIL` marks a vacant slot).
/// Eight bytes, so the slot array of a 150K-group table fits in L2; the
/// full hashes live in `GroupTable::hashes`, indexed by group id.
#[derive(Debug, Clone, Copy)]
struct GroupSlot {
    tag: u32,
    gid: u32,
}

impl OpenSlot for GroupSlot {
    fn vacant() -> Self {
        GroupSlot { tag: 0, gid: NIL }
    }

    #[inline]
    fn is_vacant(&self) -> bool {
        self.gid == NIL
    }
}

/// The tag a [`GroupSlot`] keeps: hash bits above the ones that pick a slot.
#[inline]
fn tag_of(hash: u64) -> u32 {
    (hash >> 32) as u32
}

/// Group keys, stored once per group (indexed by group id) in the
/// [`KeyBatch`] encoding: the little-endian concatenation of the key
/// columns' fixed-width encodings.
#[derive(Debug)]
enum GroupKeys {
    /// No group-by columns: one implicit group.
    Single,
    /// Keys of at most 16 encoded bytes, packed into a `u128`.
    Fixed(Vec<u128>),
    /// Wider keys.
    Var(Vec<HashKey>),
}

/// One aggregate's state for every group: a typed array indexed by group id.
#[derive(Debug)]
enum Accumulator {
    /// `COUNT(*)` and `COUNT(expr)`: the group's row count (there are no
    /// NULLs), so nothing beyond [`GroupTable::rows`].
    Count,
    /// `SUM` over `Int32`/`Int64`, exact in `i128`, range-checked at output.
    SumInt(Vec<i128>),
    /// `SUM` over `Float64`.
    SumFloat(Vec<CompactF64Sum>),
    /// `AVG`: the exact sum; the divisor is the group's row count.
    Avg(Vec<CompactF64Sum>),
    /// `MIN`/`MAX` over `Int32`/`Int64`/`Date`.
    ExtremeInt { vals: Vec<i64>, is_min: bool },
    /// `MIN`/`MAX` over `Float64` (NaN-seeded: [`float_extreme`] skips it).
    ExtremeFloat { vals: Vec<f64>, is_min: bool },
}

impl Accumulator {
    fn new(spec: &AggSpec, input: &Schema) -> Result<Self> {
        let arg_type = || -> Result<DataType> {
            match &spec.arg {
                Some(e) => Ok(e.output_type(input)?),
                None => Err(EngineError::Internal(
                    "non-COUNT(*) aggregate without argument".into(),
                )),
            }
        };
        Ok(match spec.func {
            AggFunc::CountStar | AggFunc::Count => Accumulator::Count,
            AggFunc::Avg => Accumulator::Avg(Vec::new()),
            AggFunc::Sum => match arg_type()? {
                DataType::Float64 => Accumulator::SumFloat(Vec::new()),
                _ => Accumulator::SumInt(Vec::new()),
            },
            AggFunc::Min | AggFunc::Max => {
                let is_min = spec.func == AggFunc::Min;
                match arg_type()? {
                    DataType::Float64 => Accumulator::ExtremeFloat {
                        vals: Vec::new(),
                        is_min,
                    },
                    _ => Accumulator::ExtremeInt {
                        vals: Vec::new(),
                        is_min,
                    },
                }
            }
        })
    }

    /// Extend the state to `groups` groups with each aggregate's identity.
    fn resize(&mut self, groups: usize) {
        match self {
            Accumulator::Count => {}
            Accumulator::SumInt(v) => v.resize(groups, 0),
            Accumulator::SumFloat(v) | Accumulator::Avg(v) => {
                v.resize_with(groups, CompactF64Sum::new)
            }
            Accumulator::ExtremeInt { vals, is_min } => {
                vals.resize(groups, if *is_min { i64::MAX } else { i64::MIN })
            }
            Accumulator::ExtremeFloat { vals, .. } => vals.resize(groups, f64::NAN),
        }
    }

    /// Fold one block's argument column in, row `i` into group `gids[i]`.
    fn update(&mut self, gids: &[u32], arg: Option<&ColumnData>) -> Result<()> {
        match (self, arg) {
            (Accumulator::Count, _) => {}
            (Accumulator::SumInt(s), Some(ColumnData::I32(v))) => {
                for (&g, &x) in gids.iter().zip(v) {
                    s[g as usize] += x as i128;
                }
            }
            (Accumulator::SumInt(s), Some(ColumnData::I64(v))) => {
                for (&g, &x) in gids.iter().zip(v) {
                    s[g as usize] += x as i128;
                }
            }
            (Accumulator::SumFloat(s) | Accumulator::Avg(s), Some(ColumnData::F64(v))) => {
                for (&g, &x) in gids.iter().zip(v) {
                    s[g as usize].add(x);
                }
            }
            (Accumulator::Avg(s), Some(ColumnData::I32(v))) => {
                for (&g, &x) in gids.iter().zip(v) {
                    s[g as usize].add(x as f64);
                }
            }
            (Accumulator::Avg(s), Some(ColumnData::I64(v))) => {
                for (&g, &x) in gids.iter().zip(v) {
                    s[g as usize].add(x as f64);
                }
            }
            (Accumulator::ExtremeInt { vals, is_min }, Some(col)) => {
                let ints: &[i32] = match col {
                    ColumnData::I64(v) => {
                        fold_extreme_int(vals, *is_min, gids, v.iter().copied());
                        return Ok(());
                    }
                    ColumnData::I32(v) | ColumnData::Date(v) => v,
                    other => return Err(bad_arg("MIN/MAX(int)", other)),
                };
                fold_extreme_int(vals, *is_min, gids, ints.iter().map(|&x| x as i64));
            }
            (Accumulator::ExtremeFloat { vals, is_min }, Some(ColumnData::F64(v))) => {
                let is_min = *is_min;
                for (&g, &x) in gids.iter().zip(v) {
                    let cur = &mut vals[g as usize];
                    *cur = float_extreme(*cur, x, is_min);
                }
            }
            (_, Some(other)) => return Err(bad_arg("aggregate", other)),
            (_, None) => {
                return Err(EngineError::Internal(
                    "non-COUNT(*) aggregate without argument".into(),
                ))
            }
        }
        Ok(())
    }

    /// Fold group `from` of `other` (same aggregate) into group `into`.
    fn merge_group(&mut self, into: usize, other: &Accumulator, from: usize) {
        match (self, other) {
            (Accumulator::Count, Accumulator::Count) => {}
            (Accumulator::SumInt(a), Accumulator::SumInt(b)) => a[into] += b[from],
            (Accumulator::SumFloat(a), Accumulator::SumFloat(b))
            | (Accumulator::Avg(a), Accumulator::Avg(b)) => a[into].merge(&b[from]),
            (
                Accumulator::ExtremeInt { vals: a, is_min },
                Accumulator::ExtremeInt { vals: b, .. },
            ) => {
                a[into] = if *is_min {
                    a[into].min(b[from])
                } else {
                    a[into].max(b[from])
                }
            }
            (
                Accumulator::ExtremeFloat { vals: a, is_min },
                Accumulator::ExtremeFloat { vals: b, .. },
            ) => a[into] = float_extreme(a[into], b[from], *is_min),
            _ => debug_assert!(false, "merging tables of different aggregates"),
        }
    }

    /// The output column for groups `order`; `rows` are the group row
    /// counts. Empty groups (a scalar aggregate over no rows) finalize to
    /// the type's zero, as [`AggState::finalize`](uot_expr::AggState) does.
    fn output(&self, out: &mut ColBuilder, order: &[u32], rows: &[u64]) -> Result<()> {
        let groups = order.iter().map(|&g| g as usize);
        match (self, out) {
            (Accumulator::Count, ColBuilder::I64(o)) => o.extend(groups.map(|g| rows[g] as i64)),
            (Accumulator::SumInt(s), ColBuilder::I64(o)) => {
                for g in groups {
                    o.push(int_sum_result(s[g])?);
                }
            }
            (Accumulator::SumFloat(s), ColBuilder::F64(o)) => {
                o.extend(groups.map(|g| s[g].value()))
            }
            (Accumulator::Avg(s), ColBuilder::F64(o)) => o.extend(groups.map(|g| {
                if rows[g] == 0 {
                    0.0
                } else {
                    s[g].value() / rows[g] as f64
                }
            })),
            (Accumulator::ExtremeInt { vals, .. }, out) => {
                let v = |g: usize| if rows[g] == 0 { 0 } else { vals[g] };
                match out {
                    ColBuilder::I32(o) | ColBuilder::Date(o) => {
                        o.extend(groups.map(|g| v(g) as i32))
                    }
                    ColBuilder::I64(o) => o.extend(groups.map(v)),
                    other => return Err(bad_output(other)),
                }
            }
            (Accumulator::ExtremeFloat { vals, .. }, ColBuilder::F64(o)) => {
                o.extend(groups.map(|g| if rows[g] == 0 { 0.0 } else { vals[g] }))
            }
            (_, other) => return Err(bad_output(other)),
        }
        Ok(())
    }
}

/// `MIN`/`MAX` update loop over integer arguments (branch on `is_min` once).
#[inline]
fn fold_extreme_int(vals: &mut [i64], is_min: bool, gids: &[u32], xs: impl Iterator<Item = i64>) {
    if is_min {
        for (&g, x) in gids.iter().zip(xs) {
            let cur = &mut vals[g as usize];
            *cur = (*cur).min(x);
        }
    } else {
        for (&g, x) in gids.iter().zip(xs) {
            let cur = &mut vals[g as usize];
            *cur = (*cur).max(x);
        }
    }
}

fn bad_arg(context: &str, col: &ColumnData) -> EngineError {
    EngineError::Internal(format!(
        "{context} accumulator received a {} argument",
        col.type_name()
    ))
}

fn bad_output(out: &ColBuilder) -> EngineError {
    EngineError::Internal(format!(
        "aggregate output column builder {out:?} does not match its accumulator"
    ))
}

/// A hash-aggregation partial: an open-addressing table from group key to a
/// dense group id, plus one columnar accumulator per aggregate.
#[derive(Debug)]
pub struct GroupTable {
    /// Linear-probed slots (empty until the first keyed insert).
    slots: Vec<GroupSlot>,
    /// Each group's key hash, by group id (keyed tables only).
    hashes: Vec<u64>,
    keys: GroupKeys,
    /// Types and byte offsets of the key columns inside an encoded key.
    fields: Vec<(DataType, usize)>,
    /// Rows folded into each group.
    rows: Vec<u64>,
    accs: Vec<Accumulator>,
}

impl GroupTable {
    /// An empty table for `aggs` grouped by columns `group_by` of `input`.
    pub fn new(input: &Schema, group_by: &[usize], aggs: &[AggSpec]) -> Result<Self> {
        let mut fields = Vec::with_capacity(group_by.len());
        let mut width = 0;
        for &c in group_by {
            let t = input.dtype(c);
            fields.push((t, width));
            width += t.width();
        }
        let keys = if group_by.is_empty() {
            GroupKeys::Single
        } else if width <= 16 {
            GroupKeys::Fixed(Vec::new())
        } else {
            GroupKeys::Var(Vec::new())
        };
        Ok(GroupTable {
            slots: Vec::new(),
            hashes: Vec::new(),
            keys,
            fields,
            rows: Vec::new(),
            accs: aggs
                .iter()
                .map(|a| Accumulator::new(a, input))
                .collect::<Result<_>>()?,
        })
    }

    /// Number of groups.
    fn groups(&self) -> usize {
        self.rows.len()
    }

    /// Map `n` rows to the single implicit group (no group-by columns),
    /// creating it on first use.
    fn assign_single(&mut self, n: usize, gids: &mut Vec<u32>) {
        gids.clear();
        gids.resize(n, 0);
        if self.rows.is_empty() {
            self.grow_groups(1);
        }
    }

    /// Find-or-insert every key of `batch`, writing one group id per row.
    /// A row whose key equals the previous row's reuses its group id
    /// without probing, so clustered input (lineitem by order key) touches
    /// the table once per run.
    fn assign_groups(&mut self, batch: &KeyBatch, gids: &mut Vec<u32>) -> Result<()> {
        gids.clear();
        gids.reserve(batch.len());
        let hashes = batch.hashes();
        let (slots, group_hashes) = (&mut self.slots, &mut self.hashes);
        match (&mut self.keys, batch.packed()) {
            (GroupKeys::Fixed(keys), Some(packed)) => {
                let mut run: Option<(u128, u32)> = None;
                for (i, (&h, &p)) in hashes.iter().zip(packed).enumerate() {
                    let g = match run {
                        Some((key, g)) if key == p => g,
                        _ => {
                            prefetch_ahead(slots, hashes, i);
                            let (g, new) =
                                find_or_insert(slots, group_hashes, h, |g| keys[g as usize] == p);
                            if new {
                                keys.push(p);
                            }
                            run = Some((p, g));
                            g
                        }
                    };
                    gids.push(g);
                }
            }
            (GroupKeys::Var(keys), None) => {
                for (i, &h) in hashes.iter().enumerate() {
                    prefetch_ahead(slots, hashes, i);
                    let (g, new) = find_or_insert(slots, group_hashes, h, |g| {
                        batch.key_eq(i, &keys[g as usize])
                    });
                    if new {
                        keys.push(batch.key_at(i));
                    }
                    gids.push(g);
                }
            }
            _ => {
                return Err(EngineError::Internal(
                    "group key batch does not match the group table's key shape".into(),
                ))
            }
        }
        self.grow_groups(self.hashes.len());
        Ok(())
    }

    /// Extend row counts and accumulators to `groups` groups.
    fn grow_groups(&mut self, groups: usize) {
        if groups > self.rows.len() {
            self.rows.resize(groups, 0);
            for acc in &mut self.accs {
                acc.resize(groups);
            }
        }
    }

    /// Fold one block in: row `i` belongs to group `gids[i]`; `args` holds
    /// each aggregate's evaluated argument column.
    fn update(&mut self, gids: &[u32], args: &[Option<Cow<'_, ColumnData>>]) -> Result<()> {
        for &g in gids {
            self.rows[g as usize] += 1;
        }
        for (acc, arg) in self.accs.iter_mut().zip(args) {
            acc.update(gids, arg.as_deref())?;
        }
        Ok(())
    }

    /// Fold every group of `other` (a table of the same operator) in.
    fn merge(&mut self, other: &GroupTable) {
        // Group id in `self` of each of `other`'s groups.
        let into: Vec<u32> = match (&mut self.keys, &other.keys) {
            (GroupKeys::Fixed(keys), GroupKeys::Fixed(theirs)) => theirs
                .iter()
                .zip(&other.hashes)
                .map(|(&p, &h)| {
                    let (g, new) = find_or_insert(&mut self.slots, &mut self.hashes, h, |g| {
                        keys[g as usize] == p
                    });
                    if new {
                        keys.push(p);
                    }
                    g
                })
                .collect(),
            (GroupKeys::Var(keys), GroupKeys::Var(theirs)) => theirs
                .iter()
                .zip(&other.hashes)
                .map(|(k, &h)| {
                    let (g, new) = find_or_insert(&mut self.slots, &mut self.hashes, h, |g| {
                        keys[g as usize] == *k
                    });
                    if new {
                        keys.push(k.clone());
                    }
                    g
                })
                .collect(),
            // The implicit group maps onto the implicit group.
            _ => vec![0; other.rows.len()],
        };
        let groups = match self.keys {
            GroupKeys::Single => self.rows.len().max(other.rows.len()),
            _ => self.hashes.len(),
        };
        self.grow_groups(groups);
        for (from, &g) in into.iter().enumerate() {
            let g = g as usize;
            self.rows[g] += other.rows[from];
            for (a, b) in self.accs.iter_mut().zip(&other.accs) {
                a.merge_group(g, b, from);
            }
        }
    }

    /// Finalize into a virtual column block of `schema` (group columns, then
    /// aggregates), one row per group in [`cmp_value_rows`] order of the
    /// group values.
    fn into_output(self, schema: &Arc<Schema>) -> Result<StorageBlock> {
        let width = self.fields.iter().map(|(t, _)| t.width()).sum::<usize>();
        let keys = self.canonical_keys(width);
        let order = sorted_groups(&keys, width, &self.fields, self.rows.len());
        let mut builders = make_builders(schema);
        let (key_cols, agg_cols) = builders.split_at_mut(self.fields.len());
        for (b, &(t, off)) in key_cols.iter_mut().zip(&self.fields) {
            let field = |g: u32| &keys[g as usize * width + off..][..t.width()];
            match b {
                ColBuilder::I32(o) | ColBuilder::Date(o) => o.extend(
                    order
                        .iter()
                        .map(|&g| i32::from_le_bytes(field(g).try_into().expect("4 bytes"))),
                ),
                ColBuilder::I64(o) => o.extend(
                    order
                        .iter()
                        .map(|&g| i64::from_le_bytes(field(g).try_into().expect("8 bytes"))),
                ),
                ColBuilder::Char { data, .. } => {
                    for &g in &order {
                        data.extend_from_slice(field(g));
                    }
                }
                other => return Err(bad_output(other)),
            }
        }
        for (acc, b) in self.accs.iter().zip(agg_cols) {
            acc.output(b, &order, &self.rows)?;
        }
        into_virtual_block(schema.clone(), builders)
    }

    /// Every group's encoded key, `width` bytes each, in one flat array.
    /// `Char` fields are rewritten to the bytes a `Value::Str` round trip
    /// produces (trailing whitespace trimmed, then space-padded): the
    /// output and the key order are defined on group values, as in the
    /// scalar reference.
    fn canonical_keys(&self, width: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.rows.len() * width);
        match &self.keys {
            GroupKeys::Single => {}
            GroupKeys::Fixed(keys) => {
                for k in keys {
                    out.extend_from_slice(&k.to_le_bytes()[..width]);
                }
            }
            GroupKeys::Var(keys) => {
                for k in keys {
                    match k {
                        HashKey::Var(bytes) => out.extend_from_slice(bytes),
                        HashKey::Fixed(p, _) => out.extend_from_slice(&p.to_le_bytes()[..width]),
                    }
                }
            }
        }
        for &(t, off) in &self.fields {
            if let DataType::Char(n) = t {
                for key in out.chunks_exact_mut(width) {
                    let field = &mut key[off..off + n as usize];
                    // Char bytes come from `Value::Str`s, so they are UTF-8.
                    if let Ok(value) = std::str::from_utf8(field) {
                        let len = value.trim_end().len();
                        field[len..].fill(b' ');
                    }
                }
            }
        }
        out
    }
}

/// Prefetch the home slot of the key `PREFETCH_DIST` rows ahead of `i`.
#[inline(always)]
fn prefetch_ahead(slots: &[GroupSlot], hashes: &[u64], i: usize) {
    if let Some(&h) = hashes.get(i + PREFETCH_DIST) {
        if !slots.is_empty() {
            prefetch_read(&slots[(h as usize) & (slots.len() - 1)]);
        }
    }
}

/// Find the group of (`hash`, `eq`) or claim a slot for a new group, whose
/// id is `hashes.len()` (its hash is appended to `hashes`). Returns the
/// group id and whether it is new.
#[inline]
fn find_or_insert(
    slots: &mut Vec<GroupSlot>,
    hashes: &mut Vec<u64>,
    hash: u64,
    eq: impl Fn(u32) -> bool,
) -> (u32, bool) {
    if needs_grow(hashes.len(), slots.len()) {
        grow_slots(slots, |s| hashes[s.gid as usize]);
    }
    let tag = tag_of(hash);
    let idx = probe_slot(slots, hash, |s| s.tag == tag && eq(s.gid));
    let s = &mut slots[idx];
    if s.is_vacant() {
        *s = GroupSlot {
            tag,
            gid: hashes.len() as u32,
        };
        hashes.push(hash);
        (s.gid, true)
    } else {
        (s.gid, false)
    }
}

/// Group ids `0..groups` sorted by their canonical keys (`width` bytes each
/// in `keys`) in the order [`cmp_value_rows`] gives the group values.
fn sorted_groups(
    keys: &[u8],
    width: usize,
    fields: &[(DataType, usize)],
    groups: usize,
) -> Vec<u32> {
    let field = |g: u32, off: usize, w: usize| &keys[g as usize * width + off..][..w];
    let mut order: Vec<u32> = (0..groups as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        for &(t, off) in fields {
            let (x, y) = (field(a, off, t.width()), field(b, off, t.width()));
            let ord = match t {
                DataType::Int32 | DataType::Date => {
                    i32::from_le_bytes(x.try_into().expect("4 bytes"))
                        .cmp(&i32::from_le_bytes(y.try_into().expect("4 bytes")))
                }
                DataType::Int64 => i64::from_le_bytes(x.try_into().expect("8 bytes"))
                    .cmp(&i64::from_le_bytes(y.try_into().expect("8 bytes"))),
                // Canonical Char fields are the value plus space padding;
                // the value never ends in a space.
                _ => x.trim_ascii_end().cmp(y.trim_ascii_end()),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    order
}

/// Scalar reference: aggregate one input block into a new per-block partial
/// (a `HashMap` of boxed group values and [`AggState`]s).
pub fn execute_block_scalar(
    ctx: &ExecContext,
    op: usize,
    block: &Arc<StorageBlock>,
) -> Result<Vec<StorageBlock>> {
    let (group_by, aggs) = match &ctx.plan.op(op).kind {
        OperatorKind::Aggregate { group_by, aggs, .. } => (group_by, aggs),
        other => {
            return Err(EngineError::Internal(format!(
                "aggregate work order on {}",
                other.kind_label()
            )))
        }
    };
    let n = block.num_rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    let in_schema = block.schema().clone();

    // Evaluate every aggregate argument once over the whole block.
    let arg_cols: Vec<Option<uot_storage::ColumnData>> = aggs
        .iter()
        .map(|a| {
            a.arg
                .as_ref()
                .map(|e| e.eval_all(block))
                .transpose()
                .map_err(EngineError::from)
        })
        .collect::<Result<_>>()?;

    let mut partial = AggPartial::default();

    if group_by.is_empty() {
        // Scalar aggregation: a single implicit group.
        let entry = partial
            .groups
            .entry(HashKey::from_i64(0))
            .or_insert_with(|| GroupEntry {
                group_vals: Vec::new(),
                states: aggs
                    .iter()
                    .map(|a| a.init_state(&in_schema).expect("validated by planner"))
                    .collect(),
            });
        update_entry(entry, aggs, &arg_cols, None, n)?;
    } else {
        // Bucket rows by group key, extracting all keys for the block in one
        // batched pass (the map stays keyed by `HashKey` — equality, not just
        // hash equality, defines a group).
        let mut scratch = ctx.take_scratch();
        ctx.key_extractor(op)
            .extract_block(block, &mut scratch.keys);
        let mut rows_by_group: HashMap<HashKey, Vec<usize>, FxBuildHasher> = HashMap::default();
        for row in 0..n {
            rows_by_group
                .entry(scratch.keys.key_at(row))
                .or_default()
                .push(row);
        }
        ctx.put_scratch(scratch);
        for (key, rows) in rows_by_group {
            let entry = partial.groups.entry(key).or_insert_with(|| GroupEntry {
                group_vals: group_by
                    .iter()
                    .map(|&g| block.value_at(rows[0], g).expect("in bounds"))
                    .collect(),
                states: aggs
                    .iter()
                    .map(|a| a.init_state(&in_schema).expect("validated by planner"))
                    .collect(),
            });
            update_entry(entry, aggs, &arg_cols, Some(&rows), rows.len())?;
        }
    }

    ctx.runtimes[op].agg_partials.lock().push(partial);
    Ok(Vec::new())
}

fn update_entry(
    entry: &mut GroupEntry,
    aggs: &[AggSpec],
    arg_cols: &[Option<uot_storage::ColumnData>],
    rows: Option<&[usize]>,
    row_count: usize,
) -> Result<()> {
    for ((state, spec), arg) in entry.states.iter_mut().zip(aggs).zip(arg_cols) {
        match (spec.func, arg) {
            (AggFunc::CountStar, _) => state.update_count(row_count),
            (_, Some(col)) => {
                match rows {
                    Some(rows) => state
                        .update_column(&gather_from(col, rows))
                        .map_err(EngineError::from)?,
                    None => state.update_column(col).map_err(EngineError::from)?,
                };
            }
            (_, None) => {
                return Err(EngineError::Internal(
                    "non-COUNT(*) aggregate without argument".into(),
                ))
            }
        }
    }
    Ok(())
}

/// Scalar reference: merge every per-block partial and emit the result
/// blocks.
pub fn execute_finalize_scalar(ctx: &ExecContext, op: usize) -> Result<Vec<StorageBlock>> {
    let (group_by, aggs) = match &ctx.plan.op(op).kind {
        OperatorKind::Aggregate { group_by, aggs, .. } => (group_by, aggs),
        other => {
            return Err(EngineError::Internal(format!(
                "aggregate finalize on {}",
                other.kind_label()
            )))
        }
    };
    let partials: Vec<AggPartial> = std::mem::take(&mut *ctx.runtimes[op].agg_partials.lock());
    let mut merged: HashMap<HashKey, GroupEntry, FxBuildHasher> = HashMap::default();
    for partial in partials {
        // The single finalize merges every partial: honor cancellation
        // between partials.
        ctx.check_cancelled()?;
        for (key, entry) in partial.groups {
            match merged.entry(key) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(entry);
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    let target = o.get_mut();
                    for (a, b) in target.states.iter_mut().zip(&entry.states) {
                        a.merge(b);
                    }
                }
            }
        }
    }

    // SQL semantics: a scalar aggregate over zero rows still yields one row.
    if merged.is_empty() && group_by.is_empty() {
        // We need the input schema to init default states; use the stream
        // source schema recorded in the plan via any agg's requirements. The
        // simplest correct source: re-init from the operator's own input.
        let in_schema = ctx.plan.input_schema(op);
        merged.insert(
            HashKey::from_i64(0),
            GroupEntry {
                group_vals: Vec::new(),
                states: aggs
                    .iter()
                    .map(|a| a.init_state(&in_schema).expect("validated by planner"))
                    .collect(),
            },
        );
    }

    // Deterministic output order: sort groups by their value tuple.
    let mut entries: Vec<GroupEntry> = merged.into_values().collect();
    entries.sort_by(|a, b| cmp_value_rows(&a.group_vals, &b.group_vals));

    let rows = entries
        .into_iter()
        .map(|e| {
            let mut row = e.group_vals;
            for s in &e.states {
                row.push(s.finalize().map_err(|e| overflow(ctx, op, e))?);
            }
            Ok(row)
        })
        .collect::<Result<Vec<_>>>()?;
    crate::ops::emit_value_rows(ctx, op, rows.into_iter())
}

/// Total order over value rows (used for deterministic group output).
pub(crate) fn cmp_value_rows(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanBuilder, Source};
    use uot_expr::{col, AggSpec};
    use uot_storage::{
        BlockFormat, BlockPool, DataType, MemoryTracker, Schema, Table, TableBuilder,
    };

    fn table(rows: i32) -> Arc<Table> {
        let s = Schema::from_pairs(&[
            ("g", DataType::Int32),
            ("v", DataType::Float64),
            ("flag", DataType::Char(1)),
        ]);
        let mut tb = TableBuilder::new("t", s, BlockFormat::Column, 256);
        for i in 0..rows {
            tb.append(&[
                Value::I32(i % 3),
                Value::F64(i as f64),
                Value::Str(if i % 2 == 0 { "A" } else { "B" }.into()),
            ])
            .unwrap();
        }
        Arc::new(tb.finish())
    }

    fn run_agg(
        t: &Arc<Table>,
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
        names: &[&str],
    ) -> Vec<Vec<Value>> {
        let mut pb = PlanBuilder::new();
        let a = pb
            .aggregate(Source::Table(t.clone()), group_by, aggs, names)
            .unwrap();
        let plan = Arc::new(pb.build(a).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool, BlockFormat::Row, 1 << 12, 4).unwrap();
        for blk in t.blocks() {
            execute_block(&ctx, a, &blk.clone()).unwrap();
        }
        let mut rows = Vec::new();
        for b in execute_finalize(&ctx, a).unwrap() {
            rows.extend(b.all_rows());
        }
        for b in ctx.output(a).flush() {
            rows.extend(b.all_rows());
        }
        rows
    }

    #[test]
    fn grouped_sum_count_across_blocks() {
        let t = table(30); // multiple blocks of ~21 rows each (256B/12B)
        assert!(t.num_blocks() > 1, "need multi-block input for this test");
        let rows = run_agg(
            &t,
            vec![0],
            vec![AggSpec::sum(col(1)), AggSpec::count_star()],
            &["s", "n"],
        );
        assert_eq!(rows.len(), 3);
        // group g: values g, g+3, ..., g+27 -> 10 values, sum = 10g + 3*45
        for (g, row) in rows.iter().enumerate() {
            assert_eq!(row[0], Value::I32(g as i32));
            assert_eq!(row[2], Value::I64(10));
            let expect = 10.0 * g as f64 + 3.0 * 45.0;
            assert!((row[1].as_f64() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn string_group_keys() {
        let t = table(10);
        let rows = run_agg(&t, vec![2], vec![AggSpec::count_star()], &["n"]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Str("A".into()));
        assert_eq!(rows[0][1], Value::I64(5));
        assert_eq!(rows[1][0], Value::Str("B".into()));
        assert_eq!(rows[1][1], Value::I64(5));
    }

    #[test]
    fn scalar_aggregate() {
        let t = table(10);
        let rows = run_agg(
            &t,
            vec![],
            vec![
                AggSpec::min(col(1)),
                AggSpec::max(col(1)),
                AggSpec::avg(col(1)),
            ],
            &["mn", "mx", "av"],
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::F64(0.0));
        assert_eq!(rows[0][1], Value::F64(9.0));
        assert_eq!(rows[0][2], Value::F64(4.5));
    }

    #[test]
    fn scalar_aggregate_on_empty_input_yields_one_row() {
        let t = table(0);
        let rows = run_agg(&t, vec![], vec![AggSpec::count_star()], &["n"]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::I64(0));
    }

    #[test]
    fn grouped_aggregate_on_empty_input_yields_no_rows() {
        let t = table(0);
        let rows = run_agg(&t, vec![0], vec![AggSpec::count_star()], &["n"]);
        assert!(rows.is_empty());
    }

    #[test]
    fn output_is_sorted_by_group() {
        let t = table(30);
        let rows = run_agg(&t, vec![0], vec![AggSpec::count_star()], &["n"]);
        let keys: Vec<i32> = rows.iter().map(|r| r[0].as_i32()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn serial_blocks_share_one_table() {
        let t = table(30);
        assert!(t.num_blocks() > 1, "need multi-block input for this test");
        let (ctx, a) = agg_ctx(&t, vec![0]);
        for blk in t.blocks() {
            execute_block(&ctx, a, &blk.clone()).unwrap();
        }
        assert_eq!(ctx.runtimes[a].agg_tables.lock().len(), 1);
    }

    #[test]
    fn cancellation_between_last_block_and_finalize() {
        // One table means no "between partials" point: finalize must still
        // observe a token tripped after the last stream block.
        let t = table(30);
        let (ctx, a) = agg_ctx(&t, vec![0]);
        for blk in t.blocks() {
            execute_block(&ctx, a, &blk.clone()).unwrap();
        }
        ctx.cancel.cancel();
        let err = execute_finalize(&ctx, a).unwrap_err();
        assert!(matches!(err, EngineError::Cancelled { .. }), "{err}");
    }

    fn agg_ctx(t: &Arc<Table>, group_by: Vec<usize>) -> (ExecContext, usize) {
        let mut pb = PlanBuilder::new();
        let a = pb
            .aggregate(
                Source::Table(t.clone()),
                group_by,
                vec![AggSpec::count_star()],
                &["n"],
            )
            .unwrap();
        let plan = Arc::new(pb.build(a).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool, BlockFormat::Row, 1 << 12, 4).unwrap();
        (ctx, a)
    }

    #[test]
    fn multi_column_group() {
        let t = table(12);
        let rows = run_agg(&t, vec![0, 2], vec![AggSpec::count_star()], &["n"]);
        // groups: (g, flag) — g in 0..3, flag alternates with parity of i;
        // g and parity are correlated mod 6: 6 distinct groups.
        assert_eq!(rows.len(), 6);
        let total: i64 = rows.iter().map(|r| r[2].as_i64()).sum();
        assert_eq!(total, 12);
    }
}
