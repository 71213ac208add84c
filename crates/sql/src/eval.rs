//! Expression evaluation against table rows.
//!
//! Implements SQL-style three-valued logic: comparisons involving NULL yield
//! NULL, `AND`/`OR` follow Kleene logic, and a `WHERE` keeps a row only when
//! its predicate is exactly TRUE.

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::error::{Result, SqlError};
use crate::functions;
use cocoon_table::{Column, DataType, Schema, Table, Value};
use std::collections::{HashMap, HashSet};

/// A row-binding context for expression evaluation.
pub struct RowContext<'a> {
    table: &'a Table,
    row: usize,
}

impl<'a> RowContext<'a> {
    /// Binds evaluation to `row` of `table`.
    pub fn new(table: &'a Table, row: usize) -> Self {
        RowContext { table, row }
    }

    fn column_value(&self, name: &str) -> Result<Value> {
        let idx = self
            .table
            .schema()
            .index_of(name)
            .map_err(|_| SqlError::UnknownColumn(name.to_string()))?;
        Ok(self.table.cell(self.row, idx)?.clone())
    }
}

/// Evaluates `expr` for one row.
pub fn eval(expr: &Expr, ctx: &RowContext<'_>) -> Result<Value> {
    match expr {
        Expr::Column(name) => ctx.column_value(name),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Unary { op, expr } => {
            let v = eval(expr, ctx)?;
            eval_unary(*op, v)
        }
        Expr::Binary { op, left, right } => {
            // Short-circuit logical operators must respect 3VL.
            match op {
                BinaryOp::And | BinaryOp::Or => {
                    let l = eval(left, ctx)?;
                    let r = eval(right, ctx)?;
                    Ok(eval_logic(*op, l, r))
                }
                _ => {
                    let l = eval(left, ctx)?;
                    let r = eval(right, ctx)?;
                    eval_binary(*op, l, r)
                }
            }
        }
        Expr::Case { operand, arms, otherwise } => {
            match operand {
                Some(op) => {
                    let subject = eval(op, ctx)?;
                    for (when, then) in arms {
                        let candidate = eval(when, ctx)?;
                        if subject.sql_eq(&candidate) {
                            return eval(then, ctx);
                        }
                    }
                }
                None => {
                    for (when, then) in arms {
                        if matches!(eval(when, ctx)?, Value::Bool(true)) {
                            return eval(then, ctx);
                        }
                    }
                }
            }
            match otherwise {
                Some(e) => eval(e, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::Cast { expr, ty, lenient } => {
            let v = eval(expr, ctx)?;
            match v.cast(*ty) {
                Ok(cast) => Ok(cast),
                Err(_) if *lenient => Ok(Value::Null),
                Err(e) => Err(SqlError::Type {
                    context: format!("CAST to {}", ty.sql_name()),
                    value: e.to_string(),
                }),
            }
        }
        Expr::Func { name, args } => {
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(eval(a, ctx)?);
            }
            functions::call(name, &values)
        }
        Expr::InList { expr, list, negated } => {
            let subject = eval(expr, ctx)?;
            if subject.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let candidate = eval(item, ctx)?;
                if candidate.is_null() {
                    saw_null = true;
                } else if subject == candidate {
                    return Ok(Value::Bool(!negated));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
    }
}

fn eval_unary(op: UnaryOp, v: Value) -> Result<Value> {
    Ok(match op {
        UnaryOp::IsNull => Value::Bool(v.is_null()),
        UnaryOp::IsNotNull => Value::Bool(!v.is_null()),
        UnaryOp::Not => match v {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(!b),
            other => return Err(SqlError::Type { context: "NOT".into(), value: other.render() }),
        },
        UnaryOp::Neg => match v {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(-i),
            Value::Float(f) => Value::Float(-f),
            other => {
                return Err(SqlError::Type { context: "negation".into(), value: other.render() })
            }
        },
    })
}

fn eval_logic(op: BinaryOp, l: Value, r: Value) -> Value {
    let lb = l.as_bool();
    let rb = r.as_bool();
    match op {
        BinaryOp::And => match (lb, rb, l.is_null(), r.is_null()) {
            (Some(false), _, _, _) | (_, Some(false), _, _) => Value::Bool(false),
            (Some(true), Some(true), _, _) => Value::Bool(true),
            _ => Value::Null,
        },
        BinaryOp::Or => match (lb, rb) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        _ => unreachable!("eval_logic only handles AND/OR"),
    }
}

fn eval_binary(op: BinaryOp, l: Value, r: Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        BinaryOp::Eq => Ok(Value::Bool(l == r)),
        BinaryOp::Ne => Ok(Value::Bool(l != r)),
        BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
            let ord = compare(&l, &r)?;
            Ok(Value::Bool(match op {
                BinaryOp::Lt => ord.is_lt(),
                BinaryOp::Le => ord.is_le(),
                BinaryOp::Gt => ord.is_gt(),
                _ => ord.is_ge(),
            }))
        }
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div => arithmetic(op, &l, &r),
        BinaryOp::And | BinaryOp::Or => unreachable!("handled by eval_logic"),
    }
}

fn compare(l: &Value, r: &Value) -> Result<std::cmp::Ordering> {
    // Numeric cross-type comparison, otherwise same-type ordering.
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => a
            .partial_cmp(&b)
            .ok_or(SqlError::Type { context: "comparison".into(), value: "NaN".into() }),
        _ => {
            if l.data_type() == r.data_type() {
                Ok(l.cmp(r))
            } else {
                Err(SqlError::Type {
                    context: "comparison".into(),
                    value: format!("{} vs {}", l.render(), r.render()),
                })
            }
        }
    }
}

fn arithmetic(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            BinaryOp::Add => Ok(Value::Int(a.wrapping_add(*b))),
            BinaryOp::Sub => Ok(Value::Int(a.wrapping_sub(*b))),
            BinaryOp::Mul => Ok(Value::Int(a.wrapping_mul(*b))),
            BinaryOp::Div => {
                if *b == 0 {
                    Err(SqlError::DivisionByZero)
                } else {
                    Ok(Value::Int(a / b))
                }
            }
            _ => unreachable!(),
        },
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(SqlError::Type {
                        context: "arithmetic".into(),
                        value: format!("{} {} {}", l.render(), op.sql(), r.render()),
                    })
                }
            };
            Ok(Value::Float(match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => {
                    if b == 0.0 {
                        return Err(SqlError::DivisionByZero);
                    }
                    a / b
                }
                _ => unreachable!(),
            }))
        }
    }
}

/// The set of rows a columnar operator works over: either every row of the
/// table (the common case, which enables zero-copy column pass-through) or
/// an explicit ordered subset (the survivors of `WHERE` / `QUALIFY`).
#[derive(Debug, Clone)]
pub enum Selection<'a> {
    /// All rows of a table with this height.
    All(usize),
    /// An explicit subset, in output order.
    Rows(&'a [usize]),
}

impl Selection<'_> {
    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            Selection::All(n) => *n,
            Selection::Rows(rows) => rows.len(),
        }
    }

    /// True when no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the selection covers every row in original order, so a
    /// pass-through projection can share the column instead of gathering.
    pub fn is_all(&self) -> bool {
        matches!(self, Selection::All(_))
    }

    /// Iterates the selected row indices in output order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (range, rows) = match self {
            Selection::All(n) => (0..*n, [].as_slice()),
            Selection::Rows(rows) => (0..0, *rows),
        };
        range.chain(rows.iter().copied())
    }
}

/// Evaluates `expr` column-at-a-time over the selected rows of `table`.
///
/// Every expression is computed vectorised: literals, column references,
/// casts, unary and binary operators (comparison, arithmetic, `AND`/`OR`),
/// function calls, `IN` lists and every `CASE` shape. The `CASE`s that
/// dominate Cocoon cleaning — literal value maps (`CASE col WHEN 'a' THEN
/// 'b' … ELSE col END`) and group-scoped FD repairs (`CASE WHEN k = 'x' AND
/// col = 'y' THEN 'z' … ELSE col END`) — run as one hash probe per row (see
/// `CaseMap`); literal-only `IN` lists likewise. The row-wise [`eval`]
/// remains the semantic oracle for the differential tests. Fast paths
/// preserve row-wise *success* semantics exactly, and error exactly when
/// the row-wise path would — though when several rows or nested
/// subexpressions fail, expression-at-a-time evaluation may surface a
/// different one of those errors than the strictly row-ordered oracle.
/// Sequential laziness is preserved by evaluating each `CASE` arm, and each
/// `IN` item, only over the rows no earlier arm or item matched (see
/// `eval_case_lazy` and `eval_in_list_lazy`).
pub fn eval_column(expr: &Expr, table: &Table, sel: &Selection<'_>) -> Result<Column> {
    match expr {
        Expr::Literal(v) => Ok(Column::new(vec![v.clone(); sel.len()])),
        Expr::Column(name) => {
            let idx = table
                .schema()
                .index_of(name)
                .map_err(|_| SqlError::UnknownColumn(name.to_string()))?;
            let values = table.column(idx)?.values();
            Ok(match sel {
                Selection::All(_) => Column::new(values.to_vec()),
                Selection::Rows(rows) => rows.iter().map(|&r| values[r].clone()).collect(),
            })
        }
        Expr::Cast { expr, ty, lenient } => {
            let input = eval_column(expr, table, sel)?;
            let mut out = Vec::with_capacity(input.len());
            for v in input.values() {
                match v.cast(*ty) {
                    Ok(cast) => out.push(cast),
                    Err(_) if *lenient => out.push(Value::Null),
                    Err(e) => {
                        return Err(SqlError::Type {
                            context: format!("CAST to {}", ty.sql_name()),
                            value: e.to_string(),
                        })
                    }
                }
            }
            Ok(Column::new(out))
        }
        Expr::Unary { op, expr } => {
            // Unary operators are value-wise: evaluate the operand column
            // once, then map. `IS [NOT] NULL` never errors; `NOT`/negation
            // error on exactly the rows the row-wise path would reject.
            let input = eval_column(expr, table, sel)?;
            input.into_values().into_iter().map(|v| eval_unary(*op, v)).collect()
        }
        Expr::Binary { op, left, right } => {
            // Binary operators are pairwise over their operand columns. The
            // row-wise evaluator computes both operands unconditionally
            // (`AND`/`OR` included — 3VL needs both sides), so evaluating
            // each side column-at-a-time preserves success/error semantics;
            // only *which* of several row errors surfaces may differ, as
            // the eval_column contract already allows.
            let lhs = eval_column(left, table, sel)?.into_values();
            let rhs = eval_column(right, table, sel)?.into_values();
            let zipped = lhs.into_iter().zip(rhs);
            match op {
                BinaryOp::And | BinaryOp::Or => {
                    Ok(zipped.map(|(l, r)| eval_logic(*op, l, r)).collect())
                }
                _ => zipped.map(|(l, r)| eval_binary(*op, l, r)).collect(),
            }
        }
        Expr::InList { expr, list, negated }
            if list.iter().all(|item| matches!(item, Expr::Literal(_))) =>
        {
            // Literal-only `IN` lists (the shape every compiled Cocoon
            // filter emits): one hash probe per row instead of a linear
            // scan of the list. `Value`'s `Hash`/`Eq` agree with the
            // row-wise `==` (Int/Float cross-type included); NULL literals
            // never enter the set — under 3VL they only turn a miss into
            // NULL, exactly as the row-wise scan does.
            let mut set: HashSet<&Value> = HashSet::with_capacity(list.len());
            let mut saw_null = false;
            for item in list {
                let Expr::Literal(v) = item else { unreachable!("guarded by the match arm") };
                if v.is_null() {
                    saw_null = true;
                } else {
                    set.insert(v);
                }
            }
            let subject = eval_column(expr, table, sel)?;
            Ok(subject
                .into_values()
                .into_iter()
                .map(|v| {
                    if v.is_null() {
                        Value::Null
                    } else if set.contains(&v) {
                        Value::Bool(!negated)
                    } else if saw_null {
                        Value::Null
                    } else {
                        Value::Bool(*negated)
                    }
                })
                .collect())
        }
        Expr::InList { expr, list, negated } => eval_in_list_lazy(expr, list, *negated, table, sel),
        Expr::Case { operand, arms, otherwise } => {
            let (operand, otherwise) = (operand.as_deref(), otherwise.as_deref());
            match CaseMap::new(operand, arms, otherwise, table) {
                Some(map) => map.eval(table, sel),
                None => eval_case_lazy(operand, arms, otherwise, table, sel),
            }
        }
        Expr::Func { name, args } => {
            // Row-wise `Func` evaluates every argument unconditionally, so
            // computing each argument column-at-a-time preserves
            // success/error semantics; the scalar function itself is then
            // applied per row (the functions are cheap — the win is the
            // vectorised argument evaluation underneath).
            let cols =
                args.iter().map(|a| eval_column(a, table, sel)).collect::<Result<Vec<Column>>>()?;
            let mut out = Vec::with_capacity(sel.len());
            let mut row_args = Vec::with_capacity(cols.len());
            for i in 0..sel.len() {
                row_args.clear();
                row_args.extend(cols.iter().map(|c| c.values()[i].clone()));
                out.push(functions::call(name, &row_args)?);
            }
            Ok(Column::new(out))
        }
    }
}

/// Vectorised `IN` list with non-literal items, as lazy as the row-wise
/// scan: the subject is evaluated once, and item k only over the rows whose
/// subject is non-NULL and that no earlier item matched. A NULL item turns
/// a row's eventual miss into NULL, but the scan goes on for that row.
fn eval_in_list_lazy(
    subject: &Expr,
    list: &[Expr],
    negated: bool,
    table: &Table,
    sel: &Selection<'_>,
) -> Result<Column> {
    let subject = eval_column(subject, table, sel)?.into_values();
    let mut out: Vec<Value> = vec![Value::Null; subject.len()];
    let mut saw_null = vec![false; subject.len()];
    // Unmatched rows with a non-NULL subject, paired with their slots in
    // the output column. Both shrink together as items claim rows.
    let (mut rows, mut slots): (Vec<usize>, Vec<usize>) =
        sel.iter().zip(0..).filter(|&(_, slot)| !subject[slot].is_null()).unzip();
    for item in list {
        if rows.is_empty() {
            break;
        }
        let candidates = eval_column(item, table, &Selection::Rows(&rows))?;
        let mut kept = 0;
        for (i, candidate) in candidates.values().iter().enumerate() {
            let slot = slots[i];
            if candidate.is_null() {
                saw_null[slot] = true;
            } else if subject[slot] == *candidate {
                out[slot] = Value::Bool(!negated);
                continue;
            }
            rows[kept] = rows[i];
            slots[kept] = slot;
            kept += 1;
        }
        rows.truncate(kept);
        slots.truncate(kept);
    }
    for slot in slots {
        out[slot] = if saw_null[slot] { Value::Null } else { Value::Bool(negated) };
    }
    Ok(Column::new(out))
}

/// Vectorised general `CASE`, preserving sequential laziness: each arm's
/// `WHEN` is evaluated only over the rows no earlier arm matched, each
/// `THEN` only over the rows its arm matched, and `ELSE` only over the
/// rows left after every arm — exactly the rows on which the row-wise
/// evaluator would touch those subexpressions, so an error in a branch a
/// row never reaches cannot leak into that row's result.
fn eval_case_lazy(
    operand: Option<&Expr>,
    arms: &[(Expr, Expr)],
    otherwise: Option<&Expr>,
    table: &Table,
    sel: &Selection<'_>,
) -> Result<Column> {
    let n = sel.len();
    let mut out: Vec<Value> = vec![Value::Null; n];
    // Unmatched rows, paired with their slots in the output column. Both
    // shrink together as arms claim rows.
    let mut rows: Vec<usize> = sel.iter().collect();
    let mut slots: Vec<usize> = (0..n).collect();
    // Simple CASE evaluates its subject first on every row, match or not.
    let subject = match operand {
        Some(op) => Some(eval_column(op, table, sel)?),
        None => None,
    };
    for (when, then) in arms {
        if rows.is_empty() {
            break;
        }
        let cond = eval_column(when, table, &Selection::Rows(&rows))?;
        let cond = cond.values();
        let (mut hit_rows, mut hit_slots) = (Vec::new(), Vec::new());
        let (mut miss_rows, mut miss_slots) = (Vec::new(), Vec::new());
        for (i, (&row, &slot)) in rows.iter().zip(&slots).enumerate() {
            let matched = match &subject {
                Some(subject) => subject.values()[slot].sql_eq(&cond[i]),
                None => matches!(cond[i], Value::Bool(true)),
            };
            if matched {
                hit_rows.push(row);
                hit_slots.push(slot);
            } else {
                miss_rows.push(row);
                miss_slots.push(slot);
            }
        }
        if !hit_rows.is_empty() {
            let then_col = eval_column(then, table, &Selection::Rows(&hit_rows))?;
            for (v, slot) in then_col.into_values().into_iter().zip(hit_slots) {
                out[slot] = v;
            }
        }
        rows = miss_rows;
        slots = miss_slots;
    }
    if let Some(otherwise) = otherwise {
        if !rows.is_empty() {
            let other = eval_column(otherwise, table, &Selection::Rows(&rows))?;
            for (v, slot) in other.into_values().into_iter().zip(slots) {
                out[slot] = v;
            }
        }
    }
    Ok(Column::new(out))
}

/// A `CASE` that maps a tuple of literal keys to a literal result, run as
/// one hash probe per row instead of arm by arm. Two shapes qualify:
///
/// - a simple `CASE operand WHEN lit THEN lit … END`, keyed on the operand
///   (the 1-tuple: the value maps of string outliers, DMV and column type);
/// - a searched `CASE WHEN k1 = lit AND k2 = lit … THEN lit … END` whose
///   every `WHEN` is an `AND`-tree of `column = literal` leaves (either
///   side) over the same set of key columns, each named once per arm (the
///   group-scoped FD repair).
///
/// `ELSE` must be absent, a literal, a column, or the simple CASE's
/// operand. None of these can fail once their columns resolve, so
/// evaluating them for every row is indistinguishable from sequential
/// CASE's laziness. Any other shape, and one naming a column the table
/// lacks, is left to `eval_case_lazy`.
///
/// `Value`'s `Hash`/`Eq` agree with the `=` and simple-CASE comparisons for
/// non-null values (Int/Float cross-type included). Both are NULL-rejecting,
/// so an arm with a NULL key literal matches no row and is left out of the
/// table — and a row with a NULL key cell then misses and gets `ELSE`.
struct CaseMap<'a> {
    keys: Keys<'a>,
    /// Key tuple → `THEN` literal; the first arm wins on duplicate keys, as
    /// in sequential CASE.
    arms: HashMap<Vec<&'a Value>, &'a Value>,
    otherwise: Else<'a>,
}

/// Where a [`CaseMap`] reads each row's key tuple.
enum Keys<'a> {
    /// Table columns in tuple order, read in place at each selected row.
    Columns(Vec<&'a [Value]>),
    /// A simple CASE's operand that is not a bare column: evaluated once
    /// over the selection, then read at each row's slot.
    Operand(&'a Expr),
}

/// What a [`CaseMap`] row no arm matched evaluates to.
enum Else<'a> {
    Literal(&'a Value),
    /// A table column, read at the row.
    Column(&'a [Value]),
    /// The already-evaluated operand of [`Keys::Operand`].
    Operand,
}

impl<'a> CaseMap<'a> {
    /// Recognises the shape, or `None` for `eval_case_lazy` to handle.
    fn new(
        operand: Option<&'a Expr>,
        arms: &'a [(Expr, Expr)],
        otherwise: Option<&'a Expr>,
        table: &'a Table,
    ) -> Option<Self> {
        let column = |name: &str| -> Option<&'a [Value]> {
            let idx = table.schema().index_of(name).ok()?;
            Some(table.column(idx).ok()?.values())
        };
        let mut map = HashMap::with_capacity(arms.len());
        let mut insert = |key: Vec<&'a Value>, then: &'a Value| {
            if !key.iter().any(|v| v.is_null()) {
                map.entry(key).or_insert(then);
            }
        };
        let keys = match operand {
            Some(operand) => {
                for (when, then) in arms {
                    let (Expr::Literal(key), Expr::Literal(then)) = (when, then) else {
                        return None;
                    };
                    insert(vec![key], then);
                }
                match operand {
                    Expr::Column(name) => Keys::Columns(vec![column(name)?]),
                    _ => Keys::Operand(operand),
                }
            }
            None => {
                // Key column names, sorted, as the first arm fixes them.
                let mut names: Option<Vec<&str>> = None;
                for (when, then) in arms {
                    let Expr::Literal(then) = then else { return None };
                    let mut leaves = Vec::new();
                    key_leaves(when, &mut leaves)?;
                    leaves.sort_unstable_by_key(|&(name, _)| name);
                    let arm_names: Vec<&str> = leaves.iter().map(|&(name, _)| name).collect();
                    if arm_names.windows(2).any(|pair| pair[0] == pair[1])
                        || names.as_ref().is_some_and(|names| *names != arm_names)
                    {
                        return None;
                    }
                    names.get_or_insert(arm_names);
                    insert(leaves.into_iter().map(|(_, key)| key).collect(), then);
                }
                Keys::Columns(names?.into_iter().map(column).collect::<Option<_>>()?)
            }
        };
        let otherwise = match (otherwise, &keys) {
            (None, _) => Else::Literal(&Value::Null),
            (Some(Expr::Literal(v)), _) => Else::Literal(v),
            (Some(o), Keys::Operand(operand)) if o == *operand => Else::Operand,
            (Some(Expr::Column(name)), Keys::Columns(_)) => Else::Column(column(name)?),
            _ => return None,
        };
        Some(CaseMap { keys, arms: map, otherwise })
    }

    fn eval(&self, table: &Table, sel: &Selection<'_>) -> Result<Column> {
        let subject: Column;
        let (keys, at) = match &self.keys {
            Keys::Columns(columns) => (columns.clone(), sel.clone()),
            Keys::Operand(operand) => {
                subject = eval_column(operand, table, sel)?;
                (vec![subject.values()], Selection::All(subject.len()))
            }
        };
        let mut key: Vec<&Value> = Vec::with_capacity(keys.len());
        let out = at
            .iter()
            .map(|i| {
                key.clear();
                key.extend(keys.iter().map(|column| &column[i]));
                match self.arms.get(key.as_slice()) {
                    Some(then) => (*then).clone(),
                    None => match self.otherwise {
                        Else::Literal(v) => v.clone(),
                        Else::Column(column) => column[i].clone(),
                        Else::Operand => keys[0][i].clone(),
                    },
                }
            })
            .collect();
        Ok(out)
    }
}

/// Collects the `column = literal` leaves of an `AND`-tree, or `None` when
/// any node is something else.
fn key_leaves<'a>(when: &'a Expr, out: &mut Vec<(&'a str, &'a Value)>) -> Option<()> {
    match when {
        Expr::Binary { op: BinaryOp::And, left, right } => {
            key_leaves(left, out)?;
            key_leaves(right, out)
        }
        Expr::Binary { op: BinaryOp::Eq, left, right } => match (&**left, &**right) {
            (Expr::Column(name), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(name)) => {
                out.push((name, v));
                Some(())
            }
            _ => None,
        },
        _ => None,
    }
}

/// Infers the output type of an expression against a schema (used to type
/// the columns of executed `SELECT`s).
pub fn infer_expr_type(expr: &Expr, schema: &Schema) -> DataType {
    match expr {
        Expr::Column(name) => {
            schema.field_by_name(name).map(|f| f.data_type()).unwrap_or(DataType::Text)
        }
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Text),
        Expr::Cast { ty, .. } => *ty,
        Expr::Unary { op, .. } => match op {
            UnaryOp::IsNull | UnaryOp::IsNotNull | UnaryOp::Not => DataType::Bool,
            UnaryOp::Neg => DataType::Float,
        },
        Expr::Binary { op, left, .. } => match op {
            BinaryOp::And
            | BinaryOp::Or
            | BinaryOp::Eq
            | BinaryOp::Ne
            | BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge => DataType::Bool,
            _ => infer_expr_type(left, schema),
        },
        Expr::Case { arms, otherwise, .. } => {
            // Literal NULL branches carry no type information; the first
            // typed branch decides (e.g. `CASE WHEN … THEN NULL ELSE col
            // END` keeps col's type).
            let mut branches: Vec<&Expr> = arms.iter().map(|(_, then)| then).collect();
            if let Some(o) = otherwise {
                branches.push(o);
            }
            branches
                .iter()
                .find(|b| !matches!(b, Expr::Literal(Value::Null)))
                .map(|b| infer_expr_type(b, schema))
                .unwrap_or(DataType::Text)
        }
        Expr::Func { name, .. } => match name.as_str() {
            "LENGTH" => DataType::Int,
            "REGEXP_MATCHES" | "REGEXP_FULL_MATCH" => DataType::Bool,
            "ABS" | "ROUND" => DataType::Float,
            _ => DataType::Text,
        },
        Expr::InList { .. } => DataType::Bool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let rows: Vec<Vec<String>> =
            vec![vec!["1".into(), "eng".into()], vec!["2".into(), "English".into()]];
        let mut t = Table::from_text_rows(&["id", "lang"], &rows).unwrap();
        t.set_cell(1, 0, Value::Int(2)).unwrap();
        t
    }

    fn eval_on(expr: &Expr, row: usize) -> Result<Value> {
        let t = table();
        let ctx = RowContext::new(&t, row);
        eval(expr, &ctx)
    }

    #[test]
    fn column_and_literal() {
        assert_eq!(eval_on(&Expr::col("lang"), 0).unwrap(), Value::from("eng"));
        assert_eq!(eval_on(&Expr::lit(5i64), 0).unwrap(), Value::Int(5));
        assert!(matches!(eval_on(&Expr::col("missing"), 0), Err(SqlError::UnknownColumn(_))));
    }

    #[test]
    fn case_value_map() {
        let map = Expr::value_map("lang", &[(Value::from("English"), Value::from("eng"))]);
        assert_eq!(eval_on(&map, 0).unwrap(), Value::from("eng"));
        assert_eq!(eval_on(&map, 1).unwrap(), Value::from("eng"));
    }

    #[test]
    fn searched_case_falls_through() {
        let e = Expr::Case {
            operand: None,
            arms: vec![(Expr::eq(Expr::col("lang"), Expr::lit("zzz")), Expr::lit("matched"))],
            otherwise: None,
        };
        assert_eq!(eval_on(&e, 0).unwrap(), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        let null = Expr::null();
        let truth = Expr::lit(true);
        let falsity = Expr::lit(false);
        assert_eq!(
            eval_on(&Expr::and(null.clone(), falsity.clone()), 0).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(eval_on(&Expr::and(null.clone(), truth.clone()), 0).unwrap(), Value::Null);
        assert_eq!(eval_on(&Expr::or(null.clone(), truth), 0).unwrap(), Value::Bool(true));
        assert_eq!(eval_on(&Expr::or(null.clone(), falsity), 0).unwrap(), Value::Null);
        // NULL = NULL is NULL, not true.
        assert_eq!(eval_on(&Expr::eq(null.clone(), null), 0).unwrap(), Value::Null);
    }

    #[test]
    fn comparisons_and_arithmetic() {
        let e = Expr::binary(BinaryOp::Lt, Expr::lit(1i64), Expr::lit(2i64));
        assert_eq!(eval_on(&e, 0).unwrap(), Value::Bool(true));
        let e = Expr::binary(BinaryOp::Add, Expr::lit(1i64), Expr::lit(2i64));
        assert_eq!(eval_on(&e, 0).unwrap(), Value::Int(3));
        let e = Expr::binary(BinaryOp::Div, Expr::lit(1i64), Expr::lit(0i64));
        assert!(matches!(eval_on(&e, 0), Err(SqlError::DivisionByZero)));
        let e = Expr::binary(BinaryOp::Mul, Expr::lit(2.5), Expr::lit(2i64));
        assert_eq!(eval_on(&e, 0).unwrap(), Value::Float(5.0));
    }

    #[test]
    fn cast_strict_vs_lenient() {
        let strict = Expr::cast(Expr::col("lang"), DataType::Int);
        assert!(eval_on(&strict, 0).is_err());
        let lenient = Expr::try_cast(Expr::col("lang"), DataType::Int);
        assert_eq!(eval_on(&lenient, 0).unwrap(), Value::Null);
        let ok = Expr::cast(Expr::col("id"), DataType::Int);
        assert_eq!(eval_on(&ok, 0).unwrap(), Value::Int(1));
    }

    #[test]
    fn in_list_semantics() {
        let e = Expr::InList {
            expr: Box::new(Expr::col("lang")),
            list: vec![Expr::lit("eng"), Expr::lit("fre")],
            negated: false,
        };
        assert_eq!(eval_on(&e, 0).unwrap(), Value::Bool(true));
        assert_eq!(eval_on(&e, 1).unwrap(), Value::Bool(false));
        // NULL in list makes a miss NULL.
        let e = Expr::InList {
            expr: Box::new(Expr::col("lang")),
            list: vec![Expr::lit("zzz"), Expr::null()],
            negated: false,
        };
        assert_eq!(eval_on(&e, 0).unwrap(), Value::Null);
    }

    #[test]
    fn is_null_checks() {
        assert_eq!(eval_on(&Expr::is_null(Expr::null()), 0).unwrap(), Value::Bool(true));
        assert_eq!(eval_on(&Expr::is_null(Expr::col("lang")), 0).unwrap(), Value::Bool(false));
    }

    #[test]
    fn unary_exprs_vectorise_and_match_rowwise() {
        let mut t = table();
        t.set_cell(0, 1, Value::Null).unwrap();
        for expr in [
            Expr::is_null(Expr::col("lang")),
            Expr::Unary { op: UnaryOp::IsNotNull, expr: Box::new(Expr::col("lang")) },
            Expr::Unary { op: UnaryOp::Not, expr: Box::new(Expr::is_null(Expr::col("lang"))) },
            Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(Expr::try_cast(Expr::col("id"), DataType::Int)),
            },
        ] {
            for sel in [Selection::All(t.height()), Selection::Rows(&[1]), Selection::Rows(&[])] {
                let columnar = eval_column(&expr, &t, &sel).unwrap();
                let rowwise: Vec<Value> =
                    sel.iter().map(|row| eval(&expr, &RowContext::new(&t, row)).unwrap()).collect();
                assert_eq!(columnar.values(), &rowwise[..], "{expr:?}");
            }
        }
    }

    #[test]
    fn binary_exprs_vectorise_and_match_rowwise() {
        let mut t = table();
        t.set_cell(0, 1, Value::Null).unwrap();
        let id_int = || Expr::try_cast(Expr::col("id"), DataType::Int);
        for expr in [
            Expr::eq(Expr::col("lang"), Expr::lit("eng")),
            Expr::binary(BinaryOp::Ne, Expr::col("lang"), Expr::lit("eng")),
            Expr::binary(BinaryOp::Lt, id_int(), Expr::lit(2i64)),
            Expr::binary(BinaryOp::Ge, id_int(), Expr::lit(2i64)),
            Expr::binary(BinaryOp::Add, id_int(), Expr::lit(10i64)),
            Expr::binary(BinaryOp::Mul, id_int(), Expr::lit(2.5)),
            Expr::and(Expr::is_null(Expr::col("lang")), Expr::lit(true)),
            Expr::or(Expr::is_null(Expr::col("lang")), Expr::null()),
            // Nested: (id + 1) = 2 AND lang IS NOT NULL.
            Expr::and(
                Expr::eq(Expr::binary(BinaryOp::Add, id_int(), Expr::lit(1i64)), Expr::lit(2i64)),
                Expr::Unary { op: UnaryOp::IsNotNull, expr: Box::new(Expr::col("lang")) },
            ),
        ] {
            for sel in [Selection::All(t.height()), Selection::Rows(&[1]), Selection::Rows(&[])] {
                let columnar = eval_column(&expr, &t, &sel).unwrap();
                let rowwise: Vec<Value> =
                    sel.iter().map(|row| eval(&expr, &RowContext::new(&t, row)).unwrap()).collect();
                assert_eq!(columnar.values(), &rowwise[..], "{expr:?}");
            }
        }
    }

    #[test]
    fn in_list_vectorises_and_matches_rowwise() {
        let mut t = table();
        t.set_cell(0, 1, Value::Null).unwrap();
        let in_list = |expr: Expr, list: Vec<Expr>, negated: bool| Expr::InList {
            expr: Box::new(expr),
            list,
            negated,
        };
        let id_int = || Expr::try_cast(Expr::col("id"), DataType::Int);
        for expr in [
            in_list(Expr::col("lang"), vec![Expr::lit("eng"), Expr::lit("fre")], false),
            in_list(Expr::col("lang"), vec![Expr::lit("eng"), Expr::lit("fre")], true),
            // NULL subject row 0 → NULL either way.
            in_list(Expr::col("lang"), vec![Expr::lit("English")], false),
            // NULL in the list turns misses into NULL, hits stay Bool.
            in_list(Expr::col("lang"), vec![Expr::lit("English"), Expr::null()], false),
            in_list(Expr::col("lang"), vec![Expr::lit("zzz"), Expr::null()], true),
            // Int/Float cross-type hash agreement.
            in_list(id_int(), vec![Expr::lit(1.0), Expr::lit(7i64)], false),
            // Empty list: always a (possibly negated) miss.
            in_list(Expr::col("lang"), vec![], false),
            // Non-literal list items take the lazy item-by-item path.
            in_list(Expr::col("lang"), vec![Expr::col("lang")], false),
            in_list(Expr::col("lang"), vec![Expr::lit("zzz"), Expr::col("lang")], true),
            in_list(id_int(), vec![Expr::null(), Expr::lit(2.0), id_int()], false),
        ] {
            for sel in [Selection::All(t.height()), Selection::Rows(&[1]), Selection::Rows(&[])] {
                let columnar = eval_column(&expr, &t, &sel).unwrap();
                let rowwise: Vec<Value> =
                    sel.iter().map(|row| eval(&expr, &RowContext::new(&t, row)).unwrap()).collect();
                assert_eq!(columnar.values(), &rowwise[..], "{expr:?}");
            }
        }
        // A later item that would fail is evaluated only on the rows no
        // earlier item matched: `NULLIF(s, '5')` claims "eng", so the strict
        // CAST only ever sees "5" (and misses it: Text vs Int). The NULL
        // the first item gave "5" turns that miss into NULL.
        let rows: Vec<Vec<String>> = vec![vec!["eng".into()], vec!["5".into()]];
        let t = Table::from_text_rows(&["s"], &rows).unwrap();
        let expr = in_list(
            Expr::col("s"),
            vec![
                Expr::func("NULLIF", vec![Expr::col("s"), Expr::lit("5")]),
                Expr::cast(Expr::col("s"), DataType::Int),
            ],
            false,
        );
        let sel = Selection::All(t.height());
        let columnar = eval_column(&expr, &t, &sel).unwrap();
        assert_eq!(columnar.values(), &[Value::Bool(true), Value::Null]);
        for row in 0..t.height() {
            assert_eq!(eval(&expr, &RowContext::new(&t, row)).unwrap(), columnar.values()[row]);
        }
    }

    #[test]
    fn searched_case_vectorises_and_matches_rowwise() {
        let mut t = table();
        t.set_cell(0, 1, Value::Null).unwrap();
        let id_int = || Expr::try_cast(Expr::col("id"), DataType::Int);
        for expr in [
            // Plain searched CASE with fall-through and ELSE.
            Expr::Case {
                operand: None,
                arms: vec![
                    (Expr::eq(Expr::col("lang"), Expr::lit("English")), Expr::lit("eng")),
                    (Expr::binary(BinaryOp::Lt, id_int(), Expr::lit(2i64)), Expr::lit("low")),
                ],
                otherwise: Some(Box::new(Expr::col("lang"))),
            },
            // No ELSE: unmatched rows yield NULL.
            Expr::Case {
                operand: None,
                arms: vec![(Expr::eq(id_int(), Expr::lit(1i64)), Expr::col("lang"))],
                otherwise: None,
            },
            // NULL condition counts as a miss, like row-wise.
            Expr::Case {
                operand: None,
                arms: vec![(Expr::is_null(Expr::col("lang")), Expr::lit("was null"))],
                otherwise: Some(Box::new(Expr::lit("had text"))),
            },
            // Simple CASE whose arms are not literals (outside the
            // value-map fast path): compares via sql_eq per arm.
            Expr::Case {
                operand: Some(Box::new(Expr::col("lang"))),
                arms: vec![(Expr::col("lang"), Expr::lit("self"))],
                otherwise: Some(Box::new(Expr::lit("null subject"))),
            },
            // Nested CASE in a THEN branch.
            Expr::Case {
                operand: None,
                arms: vec![(
                    Expr::Unary { op: UnaryOp::IsNotNull, expr: Box::new(Expr::col("lang")) },
                    Expr::Case {
                        operand: None,
                        arms: vec![(
                            Expr::eq(Expr::col("lang"), Expr::lit("English")),
                            Expr::lit("eng"),
                        )],
                        otherwise: Some(Box::new(Expr::col("lang"))),
                    },
                )],
                otherwise: None,
            },
        ] {
            for sel in [Selection::All(t.height()), Selection::Rows(&[1]), Selection::Rows(&[])] {
                let columnar = eval_column(&expr, &t, &sel).unwrap();
                let rowwise: Vec<Value> =
                    sel.iter().map(|row| eval(&expr, &RowContext::new(&t, row)).unwrap()).collect();
                assert_eq!(columnar.values(), &rowwise[..], "{expr:?}");
            }
        }
    }

    #[test]
    fn case_arms_stay_lazy_per_row() {
        // Row 0 ("eng") matches arm 1; arm 2's CAST would error on it but
        // must never be evaluated there — only row 1 ("5") reaches arm 2.
        let rows: Vec<Vec<String>> = vec![vec!["eng".into()], vec!["5".into()]];
        let t = Table::from_text_rows(&["s"], &rows).unwrap();
        let expr = Expr::Case {
            operand: None,
            arms: vec![
                (Expr::eq(Expr::col("s"), Expr::lit("eng")), Expr::lit("hit")),
                (
                    Expr::binary(
                        BinaryOp::Gt,
                        Expr::cast(Expr::col("s"), DataType::Int),
                        Expr::lit(0i64),
                    ),
                    Expr::lit("pos"),
                ),
            ],
            otherwise: None,
        };
        let sel = Selection::All(t.height());
        let columnar = eval_column(&expr, &t, &sel).unwrap();
        assert_eq!(columnar.values(), &[Value::from("hit"), Value::from("pos")]);
        // ELSE likewise: only evaluated on rows no arm claimed.
        let expr = Expr::Case {
            operand: None,
            arms: vec![(Expr::eq(Expr::col("s"), Expr::lit("eng")), Expr::lit("hit"))],
            otherwise: Some(Box::new(Expr::cast(Expr::col("s"), DataType::Int))),
        };
        let columnar = eval_column(&expr, &t, &sel).unwrap();
        assert_eq!(columnar.values(), &[Value::from("hit"), Value::Int(5)]);
        // But an error on a row that genuinely reaches the branch still
        // surfaces, matching row-wise.
        let sel = Selection::Rows(&[0]);
        let expr = Expr::Case {
            operand: None,
            arms: vec![(Expr::lit(true), Expr::cast(Expr::col("s"), DataType::Int))],
            otherwise: None,
        };
        assert!(eval_column(&expr, &t, &sel).is_err());
        assert!(eval(&expr, &RowContext::new(&t, 0)).is_err());
    }

    /// A three-column table `k`, `v`, `s` with NULL, Int/Float and -0.0
    /// cells, and a duplicated `(k, v)` pair.
    fn keyed_table() -> Table {
        let rows: Vec<Vec<String>> = (0..6).map(|_| vec![String::new(); 3]).collect();
        let mut t = Table::from_text_rows(&["k", "v", "s"], &rows).unwrap();
        let cells = [
            [Value::from("a"), Value::Int(1), Value::from("5")],
            [Value::from("a"), Value::Float(1.0), Value::from("x")],
            [Value::from("b"), Value::Float(-0.0), Value::from("7")],
            [Value::Null, Value::Int(1), Value::from("8")],
            [Value::from("b"), Value::Null, Value::from("9")],
            [Value::from("a"), Value::Int(1), Value::from("5")],
        ];
        for (row, cells) in cells.into_iter().enumerate() {
            for (col, v) in cells.into_iter().enumerate() {
                t.set_cell(row, col, v).unwrap();
            }
        }
        t
    }

    fn searched(arms: Vec<(Expr, Expr)>, otherwise: Option<Expr>) -> Expr {
        Expr::Case { operand: None, arms, otherwise: otherwise.map(Box::new) }
    }

    /// Asserts the columnar result equals the row-wise one on every
    /// selection, `Ok` in both paths, and reports whether `expr` is a CASE
    /// the hash map takes.
    fn matches_rowwise(expr: &Expr, t: &Table) -> bool {
        let subset = [4, 1, 0];
        for sel in [Selection::All(t.height()), Selection::Rows(&subset), Selection::Rows(&[])] {
            let columnar = eval_column(expr, t, &sel).unwrap();
            let rowwise: Vec<Value> =
                sel.iter().map(|row| eval(expr, &RowContext::new(t, row)).unwrap()).collect();
            assert_eq!(columnar.values(), &rowwise[..], "{expr:?}");
        }
        let Expr::Case { operand, arms, otherwise } = expr else { return false };
        CaseMap::new(operand.as_deref(), arms, otherwise.as_deref(), t).is_some()
    }

    #[test]
    fn fd_case_maps_probe_once_and_match_rowwise() {
        let t = keyed_table();
        let kv = |k: Value, v: Value| {
            Expr::and(
                Expr::eq(Expr::col("k"), Expr::Literal(k)),
                Expr::eq(Expr::col("v"), Expr::Literal(v)),
            )
        };
        for expr in [
            // The FD repair shape, with Int/Float and -0.0 keys.
            searched(
                vec![
                    (kv(Value::from("a"), Value::Float(1.0)), Expr::lit("one")),
                    (kv(Value::from("b"), Value::Int(0)), Expr::lit("zero")),
                ],
                Some(Expr::col("v")),
            ),
            // Leaf order flipped per arm, `literal = column`, a duplicate
            // key (the first arm wins) and a NULL key (never matches).
            searched(
                vec![
                    (
                        Expr::and(
                            Expr::eq(Expr::lit(1i64), Expr::col("v")),
                            Expr::eq(Expr::col("k"), Expr::lit("a")),
                        ),
                        Expr::lit("first"),
                    ),
                    (kv(Value::from("a"), Value::Int(1)), Expr::lit("second")),
                    (kv(Value::Null, Value::Int(1)), Expr::lit("null key")),
                ],
                Some(Expr::lit("else")),
            ),
            // A three-key AND-tree, no ELSE, and ELSE a column outside the key.
            searched(
                vec![(
                    Expr::and(
                        Expr::eq(Expr::col("s"), Expr::lit("5")),
                        kv(Value::from("a"), Value::Int(1)),
                    ),
                    Expr::lit(true),
                )],
                None,
            ),
            searched(
                vec![(kv(Value::from("b"), Value::Float(0.0)), Expr::null())],
                Some(Expr::col("s")),
            ),
            // The 1-tuple: simple CASE on a column and on a computed operand
            // (`ELSE operand` reuses the evaluated subject).
            Expr::value_map(
                "v",
                &[(Value::Int(1), Value::from("one")), (Value::Null, Value::from("n"))],
            ),
            Expr::Case {
                operand: Some(Box::new(Expr::func("UPPER", vec![Expr::col("k")]))),
                arms: vec![(Expr::lit("A"), Expr::lit("upper a"))],
                otherwise: Some(Box::new(Expr::func("UPPER", vec![Expr::col("k")]))),
            },
        ] {
            assert!(matches_rowwise(&expr, &t), "hash path refused {expr:?}");
        }
    }

    #[test]
    fn near_miss_case_shapes_stay_lazy_and_match_rowwise() {
        let t = keyed_table();
        let eq = |c: &str, v: Value| Expr::eq(Expr::col(c), Expr::Literal(v));
        for expr in [
            // An OR leaf.
            searched(
                vec![(Expr::or(eq("k", Value::from("a")), eq("v", Value::Int(1))), Expr::lit("x"))],
                Some(Expr::col("v")),
            ),
            // One column named twice in an arm.
            searched(
                vec![(Expr::and(eq("v", Value::Int(1)), eq("v", Value::Int(2))), Expr::lit("x"))],
                None,
            ),
            // Arms over different key-column sets.
            searched(
                vec![
                    (eq("k", Value::from("a")), Expr::lit("x")),
                    (eq("v", Value::Int(1)), Expr::lit("y")),
                ],
                Some(Expr::col("k")),
            ),
            // A non-literal THEN.
            searched(vec![(eq("k", Value::from("a")), Expr::col("s"))], None),
            // An unknown column in an arm no row reaches: every row has a
            // non-NULL `s`.
            searched(
                vec![
                    (
                        Expr::Unary { op: UnaryOp::IsNotNull, expr: Box::new(Expr::col("s")) },
                        Expr::lit("x"),
                    ),
                    (eq("nope", Value::Int(1)), Expr::lit("y")),
                ],
                None,
            ),
        ] {
            assert!(!matches_rowwise(&expr, &t), "hash path took {expr:?}");
        }
        // A key column the table lacks, on a selection that reaches no arm.
        let arms = vec![(eq("nope", Value::Int(1)), Expr::lit("y"))];
        assert!(CaseMap::new(None, &arms, None, &t).is_none());
        let unknown = searched(arms, None);
        assert!(eval_column(&unknown, &t, &Selection::Rows(&[])).unwrap().values().is_empty());
        // A strict CAST ELSE that fails only on the row an arm claimed ("x"
        // in row 1): the hash map would evaluate ELSE on every row.
        let expr = searched(
            vec![(
                Expr::and(eq("k", Value::from("a")), eq("s", Value::from("x"))),
                Expr::lit(0i64),
            )],
            Some(Expr::cast(Expr::col("s"), DataType::Int)),
        );
        assert!(!matches_rowwise(&expr, &t));
    }

    #[test]
    fn func_calls_vectorise_and_match_rowwise() {
        let mut t = table();
        t.set_cell(0, 1, Value::Null).unwrap();
        for expr in [
            Expr::func("LENGTH", vec![Expr::col("lang")]),
            Expr::func("UPPER", vec![Expr::col("lang")]),
            Expr::func("CONCAT", vec![Expr::col("lang"), Expr::lit("!")]),
            Expr::func("COALESCE", vec![Expr::col("lang"), Expr::lit("fallback")]),
            Expr::func("NULLIF", vec![Expr::col("lang"), Expr::lit("English")]),
            Expr::func("ABS", vec![Expr::try_cast(Expr::col("id"), DataType::Int)]),
            // Nested: function of a function.
            Expr::func("LENGTH", vec![Expr::func("TRIM", vec![Expr::col("lang")])]),
        ] {
            for sel in [Selection::All(t.height()), Selection::Rows(&[1]), Selection::Rows(&[])] {
                let columnar = eval_column(&expr, &t, &sel).unwrap();
                let rowwise: Vec<Value> =
                    sel.iter().map(|row| eval(&expr, &RowContext::new(&t, row)).unwrap()).collect();
                assert_eq!(columnar.values(), &rowwise[..], "{expr:?}");
            }
        }
        // Errors surface in both paths: ABS of text, unknown function.
        for expr in [
            Expr::func("ABS", vec![Expr::col("lang")]),
            Expr::func("NO_SUCH_FN", vec![Expr::col("lang")]),
        ] {
            assert!(eval_column(&expr, &t, &Selection::Rows(&[1])).is_err(), "{expr:?}");
            assert!(eval(&expr, &RowContext::new(&t, 1)).is_err(), "{expr:?}");
        }
    }

    #[test]
    fn binary_errors_match_rowwise() {
        let t = table();
        for expr in [
            // Arithmetic on text errors on every row in both paths.
            Expr::binary(BinaryOp::Add, Expr::col("lang"), Expr::lit(1i64)),
            // Division by a zero literal.
            Expr::binary(BinaryOp::Div, Expr::lit(1i64), Expr::lit(0i64)),
            // Untyped comparison: text vs bool.
            Expr::binary(BinaryOp::Lt, Expr::col("lang"), Expr::lit(true)),
        ] {
            assert!(eval_column(&expr, &t, &Selection::All(t.height())).is_err(), "{expr:?}");
            assert!(eval(&expr, &RowContext::new(&t, 0)).is_err(), "{expr:?}");
        }
    }

    #[test]
    fn unary_errors_match_rowwise() {
        let t = table();
        // NOT of a text column errors both paths.
        let expr = Expr::Unary { op: UnaryOp::Not, expr: Box::new(Expr::col("lang")) };
        assert!(eval_column(&expr, &t, &Selection::All(t.height())).is_err());
        assert!(eval(&expr, &RowContext::new(&t, 0)).is_err());
        // Negating text errors too.
        let expr = Expr::Unary { op: UnaryOp::Neg, expr: Box::new(Expr::col("lang")) };
        assert!(eval_column(&expr, &t, &Selection::All(t.height())).is_err());
    }

    #[test]
    fn type_inference() {
        let t = table();
        let schema = t.schema();
        assert_eq!(infer_expr_type(&Expr::col("lang"), schema), DataType::Text);
        assert_eq!(
            infer_expr_type(&Expr::cast(Expr::col("lang"), DataType::Bool), schema),
            DataType::Bool
        );
        assert_eq!(
            infer_expr_type(&Expr::eq(Expr::col("lang"), Expr::lit("x")), schema),
            DataType::Bool
        );
        assert_eq!(
            infer_expr_type(&Expr::func("LENGTH", vec![Expr::col("lang")]), schema),
            DataType::Int
        );
    }
}
