//! RPSL text parsing and serialization.
//!
//! The subset: `aut-num` objects separated by blank lines, `key: value`
//! attributes, whitespace-led continuation lines, `#` comments. Unknown
//! attributes are tolerated and skipped (real registries are full of
//! them); malformed rules inside known attributes are errors.

use std::error::Error;
use std::fmt;

use bgp_types::{Asn, Ipv4Prefix};

use crate::object::{AutNum, ExportRule, Filter, ImportRule};

/// Parse error with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpslError {
    /// 1-based line number of the offending text.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for RpslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RPSL parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for RpslError {}

fn err(line: usize, message: impl Into<String>) -> RpslError {
    RpslError {
        line,
        message: message.into(),
    }
}

/// A parsed IRR database snapshot: a bag of `aut-num` objects.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IrrDatabase {
    /// The objects, in file order.
    pub objects: Vec<AutNum>,
}

impl IrrDatabase {
    /// Serializes the whole database (objects separated by blank lines).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.objects {
            out.push_str(&o.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses a database from RPSL text.
    pub fn parse(input: &str) -> Result<IrrDatabase, RpslError> {
        // Gather logical attribute lines per object (handling continuation
        // lines), then parse each object.
        let mut db = IrrDatabase::default();
        let mut current: Vec<(usize, String, String)> = Vec::new();

        let flush = |attrs: &mut Vec<(usize, String, String)>,
                     db: &mut IrrDatabase|
         -> Result<(), RpslError> {
            if attrs.is_empty() {
                return Ok(());
            }
            db.objects.push(parse_object(attrs)?);
            attrs.clear();
            Ok(())
        };

        for (idx, raw) in input.lines().enumerate() {
            let lineno = idx + 1;
            // Strip comments.
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            };
            if line.trim().is_empty() {
                flush(&mut current, &mut db)?;
                continue;
            }
            if line.starts_with(' ') || line.starts_with('\t') {
                // Continuation of the previous attribute.
                match current.last_mut() {
                    Some((_, _, v)) => {
                        v.push(' ');
                        v.push_str(line.trim());
                    }
                    None => return Err(err(lineno, "continuation line before any attribute")),
                }
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| err(lineno, format!("expected `key: value`, got {line:?}")))?;
            current.push((
                lineno,
                key.trim().to_ascii_lowercase(),
                value.trim().to_string(),
            ));
        }
        flush(&mut current, &mut db)?;
        Ok(db)
    }
}

fn parse_object(attrs: &[(usize, String, String)]) -> Result<AutNum, RpslError> {
    let (first_line, first_key, first_val) = &attrs[0];
    if first_key != "aut-num" {
        return Err(err(
            *first_line,
            format!("object must start with aut-num, got {first_key:?}"),
        ));
    }
    let asn: Asn = first_val
        .parse()
        .map_err(|_| err(*first_line, format!("bad AS number {first_val:?}")))?;

    let mut object = AutNum {
        asn,
        as_name: String::new(),
        descr: String::new(),
        imports: Vec::new(),
        exports: Vec::new(),
        changed: 0,
        source: String::new(),
    };

    for (line, key, value) in &attrs[1..] {
        match key.as_str() {
            "as-name" => object.as_name = value.clone(),
            "descr" if object.descr.is_empty() => {
                object.descr = value.clone();
            }
            "import" => object.imports.push(parse_import(*line, value)?),
            "export" => object.exports.push(parse_export(*line, value)?),
            "changed" => {
                // `changed: email date` — keep the most recent date.
                let date = value
                    .split_whitespace()
                    .last()
                    .and_then(|d| d.parse::<u32>().ok())
                    .ok_or_else(|| err(*line, format!("bad changed line {value:?}")))?;
                object.changed = object.changed.max(date);
            }
            "source" => object.source = value.clone(),
            "aut-num" => return Err(err(*line, "duplicate aut-num attribute")),
            _ => {} // tolerated unknown attribute (mnt-by, admin-c, …)
        }
    }
    Ok(object)
}

fn parse_filter(line: usize, text: &str) -> Result<Filter, RpslError> {
    let t = text.trim();
    if t.eq_ignore_ascii_case("ANY") {
        return Ok(Filter::Any);
    }
    if let Some(body) = t.strip_prefix('{') {
        let body = body
            .strip_suffix('}')
            .ok_or_else(|| err(line, "unterminated prefix set"))?;
        let mut ps = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let p: Ipv4Prefix = part
                .parse()
                .map_err(|e| err(line, format!("bad prefix {part:?}: {e}")))?;
            ps.push(p);
        }
        if ps.is_empty() {
            return Err(err(line, "empty prefix set"));
        }
        return Ok(Filter::Prefixes(ps));
    }
    // AS-SET names contain a dash; plain AS numbers do not.
    if t.len() > 2 && t[2..].contains('-') {
        return Ok(Filter::AsSet(t.to_string()));
    }
    let asn: Asn = t
        .parse()
        .map_err(|_| err(line, format!("bad filter {t:?}")))?;
    Ok(Filter::Origin(asn))
}

fn parse_import(line: usize, value: &str) -> Result<ImportRule, RpslError> {
    // Grammar: `from AS<x> [action pref = <n>;] accept <filter>`.
    let rest = value
        .trim()
        .strip_prefix("from ")
        .ok_or_else(|| err(line, format!("import must start with `from`: {value:?}")))?;
    let (peer_str, rest) = rest
        .split_once(' ')
        .ok_or_else(|| err(line, "import missing body after neighbor"))?;
    let from: Asn = peer_str
        .trim()
        .parse()
        .map_err(|_| err(line, format!("bad neighbor {peer_str:?}")))?;

    let rest = rest.trim();
    let (pref, accept_part) = if let Some(actions) = rest.strip_prefix("action ") {
        let (action_body, after) = actions
            .split_once(';')
            .ok_or_else(|| err(line, "action clause missing `;`"))?;
        let ab = action_body.trim();
        let pref = if let Some(v) = ab.strip_prefix("pref") {
            let v = v.trim_start().strip_prefix('=').map(str::trim);
            match v.and_then(|x| x.parse::<u32>().ok()) {
                Some(n) => Some(n),
                None => return Err(err(line, format!("bad pref action {ab:?}"))),
            }
        } else {
            return Err(err(line, format!("unsupported action {ab:?}")));
        };
        (pref, after.trim())
    } else {
        (None, rest)
    };

    let accept = accept_part
        .strip_prefix("accept ")
        .ok_or_else(|| err(line, format!("import missing `accept`: {value:?}")))?;
    Ok(ImportRule {
        from,
        pref,
        accept: parse_filter(line, accept)?,
    })
}

fn parse_export(line: usize, value: &str) -> Result<ExportRule, RpslError> {
    // Grammar: `to AS<x> announce <filter>`.
    let rest = value
        .trim()
        .strip_prefix("to ")
        .ok_or_else(|| err(line, format!("export must start with `to`: {value:?}")))?;
    let (peer_str, rest) = rest
        .split_once(' ')
        .ok_or_else(|| err(line, "export missing body after neighbor"))?;
    let to: Asn = peer_str
        .trim()
        .parse()
        .map_err(|_| err(line, format!("bad neighbor {peer_str:?}")))?;
    let announce = rest
        .trim()
        .strip_prefix("announce ")
        .ok_or_else(|| err(line, format!("export missing `announce`: {value:?}")))?;
    Ok(ExportRule {
        to,
        announce: parse_filter(line, announce)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
aut-num:     AS1
as-name:     GTE
descr:       synthetic
import:      from AS2 action pref = 880; accept ANY
import:      from AS3 accept AS3
import:      from AS4 action pref = 900; accept { 10.0.0.0/8, 12.0.0.0/19 }
export:      to AS2 announce AS1
export:      to AS3 announce AS-GTE-CUST
changed:     noc@as1.example 20020101
changed:     noc@as1.example 20021024
source:      SYNTH

# a comment between objects
aut-num:     AS8262
as-name:     LIREX
import:      from AS5511 action pref = 920;
             accept ANY
changed:     noc@as8262.example 20011115
source:      SYNTH
";

    #[test]
    fn parses_objects_and_attributes() {
        let db = IrrDatabase::parse(SAMPLE).unwrap();
        assert_eq!(db.objects.len(), 2);
        let a1 = db.objects.iter().find(|o| o.asn == Asn(1)).unwrap();
        assert_eq!(a1.as_name, "GTE");
        assert_eq!(a1.imports.len(), 3);
        assert_eq!(a1.pref_for(Asn(2)), Some(880));
        assert_eq!(a1.imports[1].accept, Filter::Origin(Asn(3)));
        assert_eq!(
            a1.imports[2].accept,
            Filter::Prefixes(vec![
                "10.0.0.0/8".parse().unwrap(),
                "12.0.0.0/19".parse().unwrap()
            ])
        );
        assert_eq!(a1.exports[1].announce, Filter::AsSet("AS-GTE-CUST".into()));
        assert_eq!(a1.changed, 20021024, "latest changed date wins");
        assert!(a1.updated_in(2002));
    }

    #[test]
    fn continuation_lines_join() {
        let db = IrrDatabase::parse(SAMPLE).unwrap();
        let a = db.objects.iter().find(|o| o.asn == Asn(8262)).unwrap();
        assert_eq!(a.pref_for(Asn(5511)), Some(920));
        assert_eq!(a.imports[0].accept, Filter::Any);
        assert!(!a.updated_in(2002));
    }

    #[test]
    fn render_parse_roundtrip() {
        let db = IrrDatabase::parse(SAMPLE).unwrap();
        let text = db.render();
        let db2 = IrrDatabase::parse(&text).unwrap();
        assert_eq!(db, db2);
    }

    #[test]
    fn unknown_attributes_are_tolerated() {
        let text = "\
aut-num: AS7
as-name: X
mnt-by:  MAINT-X
admin-c: XX1-RIPE
changed: a@b 20020505
source:  SYNTH
";
        let db = IrrDatabase::parse(text).unwrap();
        assert_eq!(db.objects[0].asn, Asn(7));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "aut-num: AS1\nimport: from AS2 akzept ANY\n";
        let e = IrrDatabase::parse(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));

        let bad2 = "as-name: X\n";
        let e2 = IrrDatabase::parse(bad2).unwrap_err();
        assert!(e2.message.contains("aut-num"));

        let bad3 = "aut-num: AS1\nimport: from ASx accept ANY\n";
        assert!(IrrDatabase::parse(bad3).is_err());

        let bad4 = "   leading continuation\n";
        assert!(IrrDatabase::parse(bad4).is_err());
    }

    #[test]
    fn empty_input_is_empty_database() {
        assert_eq!(IrrDatabase::parse("").unwrap().objects.len(), 0);
        assert_eq!(
            IrrDatabase::parse("\n# only comments\n\n")
                .unwrap()
                .objects
                .len(),
            0
        );
    }
}
