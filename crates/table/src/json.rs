//! JSON serialisation of tables — the wire format `cocoon-server` responds
//! with when a client asks for typed rows instead of CSV.
//!
//! CSV erases types (every cell rides as text); these emitters preserve
//! them: booleans and numbers stay JSON scalars, NULL is `null`, and
//! dates/times serialise as their canonical rendered strings. Only the
//! *writing* half lives here — parsing JSON requests is the job of the
//! caller's JSON parser (the table crate stays dependency-free).

use crate::table::Table;
use crate::value::Value;

/// Escapes a string as a JSON string literal (quotes included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The JSON scalar for one cell.
///
/// * NULL ⇒ `null`
/// * booleans and integers ⇒ native JSON scalars
/// * finite floats ⇒ JSON numbers (non-finite floats have no JSON form and
///   degrade to `null`)
/// * dates, times, text ⇒ their canonical [`Value::render`] string
pub fn value_json(value: &Value) -> String {
    match value {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) if f.is_finite() => {
            // `{}` prints the shortest representation that round-trips;
            // force a decimal point so 1.0 stays visibly a float.
            let text = f.to_string();
            if text.contains(['.', 'e', 'E']) {
                text
            } else {
                format!("{text}.0")
            }
        }
        Value::Float(_) => "null".to_string(),
        other => escape(&other.render()),
    }
}

/// The table's rows as a JSON array of objects, one `{"column": value}`
/// object per row, columns in schema order.
pub fn rows_json(table: &Table) -> String {
    let names: Vec<String> = table.schema().names().iter().map(|n| escape(n)).collect();
    let mut out = String::from("[");
    for (r, row) in table.rows().enumerate() {
        if r > 0 {
            out.push_str(", ");
        }
        out.push('{');
        for (c, value) in row.iter().enumerate() {
            if c > 0 {
                out.push_str(", ");
            }
            out.push_str(&names[c]);
            out.push_str(": ");
            out.push_str(&value_json(value));
        }
        out.push('}');
    }
    out.push(']');
    out
}

/// The table's schema as a JSON array of `{"name", "type"}` objects, in
/// column order (`type` is the SQL type name; see `DataType::sql_name`).
pub fn schema_json(table: &Table) -> String {
    let mut out = String::from("[");
    for (i, field) in table.schema().fields().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"name\": {}, \"type\": {}}}",
            escape(field.name()),
            escape(field.data_type().sql_name())
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::Date;
    use crate::schema::{Field, Schema};
    use crate::table::Table;
    use crate::value::DataType;
    use crate::Column;

    fn typed_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("name", DataType::Text),
            Field::new("score", DataType::Float),
            Field::new("seen", DataType::Date),
            Field::new("ok", DataType::Bool),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::new(vec![Value::from("a\"b"), Value::Null]),
                Column::new(vec![Value::Float(1.5), Value::Float(2.0)]),
                Column::new(vec![Value::Date(Date::new(2003, 4, 5).unwrap()), Value::Null]),
                Column::new(vec![Value::Bool(true), Value::Bool(false)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn scalars_preserve_types() {
        assert_eq!(value_json(&Value::Null), "null");
        assert_eq!(value_json(&Value::Bool(true)), "true");
        assert_eq!(value_json(&Value::Int(-3)), "-3");
        assert_eq!(value_json(&Value::Float(2.5)), "2.5");
        assert_eq!(value_json(&Value::Float(2.0)), "2.0");
        assert_eq!(value_json(&Value::Float(f64::NAN)), "null");
        assert_eq!(value_json(&Value::Float(f64::INFINITY)), "null");
        assert_eq!(value_json(&Value::from("plain")), "\"plain\"");
        assert_eq!(value_json(&Value::Date(Date::new(2003, 4, 5).unwrap())), "\"2003-04-05\"");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(value_json(&Value::from("a\"b\\c\nd")), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(value_json(&Value::from("\u{1}")), "\"\\u0001\"");
    }

    #[test]
    fn rows_json_emits_typed_objects() {
        let out = rows_json(&typed_table());
        assert_eq!(
            out,
            "[{\"name\": \"a\\\"b\", \"score\": 1.5, \"seen\": \"2003-04-05\", \"ok\": true}, \
             {\"name\": null, \"score\": 2.0, \"seen\": null, \"ok\": false}]"
        );
    }

    #[test]
    fn schema_json_lists_columns_in_order() {
        let out = schema_json(&typed_table());
        assert_eq!(
            out,
            "[{\"name\": \"name\", \"type\": \"VARCHAR\"}, \
              {\"name\": \"score\", \"type\": \"DOUBLE\"}, \
              {\"name\": \"seen\", \"type\": \"DATE\"}, \
              {\"name\": \"ok\", \"type\": \"BOOLEAN\"}]"
                .replace("  ", " ")
        );
    }

    #[test]
    fn empty_table_serialises_to_empty_array() {
        let t = Table::from_text_rows::<&str>(&["a"], &[]).unwrap();
        assert_eq!(rows_json(&t), "[]");
    }
}
