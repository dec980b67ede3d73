//! The standard Prolog operator table.

/// Operator fixity and argument-priority constraints, as in ISO Prolog.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpType {
    /// Infix, both arguments strictly lower priority.
    Xfx,
    /// Infix, right argument may have equal priority (right-associative).
    Xfy,
    /// Infix, left argument may have equal priority (left-associative).
    Yfx,
    /// Prefix, argument strictly lower priority.
    Fx,
    /// Prefix, argument may have equal priority.
    Fy,
}

impl OpType {
    /// Whether this is a prefix operator type.
    pub fn is_prefix(self) -> bool {
        matches!(self, OpType::Fx | OpType::Fy)
    }
}

/// A single operator definition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpDef {
    /// Operator priority, 1..=1200 (lower binds tighter).
    pub priority: u32,
    /// Fixity.
    pub typ: OpType,
}

impl OpDef {
    /// Maximum priority allowed for the left argument of an infix operator.
    pub fn left_max(self) -> u32 {
        match self.typ {
            OpType::Yfx => self.priority,
            _ => self.priority - 1,
        }
    }

    /// Maximum priority allowed for the right (or only) argument.
    pub fn right_max(self) -> u32 {
        match self.typ {
            OpType::Xfy | OpType::Fy => self.priority,
            _ => self.priority - 1,
        }
    }
}

/// The operator table: name → prefix and/or infix definitions.
///
/// The table is fixed (there is no `op/3`), so it holds nothing: each
/// lookup is a `match` on the name.
///
/// # Examples
///
/// ```
/// use prolog_syntax::ops::OpTable;
/// let table = OpTable::standard();
/// assert_eq!(table.infix(":-").unwrap().priority, 1200);
/// assert!(table.prefix("\\+").is_some());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTable;

impl OpTable {
    /// The standard table (the usual Edinburgh/ISO core operators).
    pub fn standard() -> Self {
        OpTable
    }

    /// The infix definition of `name`, if any.
    pub fn infix(&self, name: &str) -> Option<OpDef> {
        use OpType::*;
        let (priority, typ) = match name {
            ":-" | "-->" => (1200, Xfx),
            ";" => (1100, Xfy),
            "->" => (1050, Xfy),
            // `,` is handled by the parser directly (it is not an atom token)
            "=" | "\\=" | "==" | "\\==" | "@<" | "@>" | "@=<" | "@>=" | "is" | "=:=" | "=\\="
            | "<" | ">" | "=<" | ">=" | "=.." => (700, Xfx),
            "+" | "-" | "/\\" | "\\/" | "xor" => (500, Yfx),
            "*" | "/" | "//" | "mod" | "rem" | "div" | "<<" | ">>" => (400, Yfx),
            "**" => (200, Xfx),
            "^" => (200, Xfy),
            _ => return None,
        };
        Some(OpDef { priority, typ })
    }

    /// The prefix definition of `name`, if any.
    pub fn prefix(&self, name: &str) -> Option<OpDef> {
        use OpType::*;
        let (priority, typ) = match name {
            ":-" | "?-" => (1200, Fx),
            "\\+" => (900, Fy),
            "-" | "+" | "\\" => (200, Fy),
            _ => return None,
        };
        Some(OpDef { priority, typ })
    }

    /// Whether `name` is an operator in any fixity.
    pub fn is_operator(&self, name: &str) -> bool {
        self.infix(name).is_some() || self.prefix(name).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_priority_bounds() {
        let t = OpTable::standard();
        let neck = t.infix(":-").unwrap();
        assert_eq!(neck.left_max(), 1199);
        assert_eq!(neck.right_max(), 1199);
        let semi = t.infix(";").unwrap();
        assert_eq!(semi.left_max(), 1099);
        assert_eq!(semi.right_max(), 1100);
        let plus = t.infix("+").unwrap();
        assert_eq!(plus.left_max(), 500);
        assert_eq!(plus.right_max(), 499);
        let neg = t.prefix("-").unwrap();
        assert_eq!(neg.right_max(), 200);
    }

    #[test]
    fn every_standard_operator_is_defined() {
        use OpType::*;
        let t = OpTable::standard();
        let infix: &[(&str, u32, OpType)] = &[
            (":-", 1200, Xfx),
            ("-->", 1200, Xfx),
            (";", 1100, Xfy),
            ("->", 1050, Xfy),
            ("=", 700, Xfx),
            ("\\=", 700, Xfx),
            ("==", 700, Xfx),
            ("\\==", 700, Xfx),
            ("@<", 700, Xfx),
            ("@>", 700, Xfx),
            ("@=<", 700, Xfx),
            ("@>=", 700, Xfx),
            ("is", 700, Xfx),
            ("=:=", 700, Xfx),
            ("=\\=", 700, Xfx),
            ("<", 700, Xfx),
            (">", 700, Xfx),
            ("=<", 700, Xfx),
            (">=", 700, Xfx),
            ("=..", 700, Xfx),
            ("+", 500, Yfx),
            ("-", 500, Yfx),
            ("/\\", 500, Yfx),
            ("\\/", 500, Yfx),
            ("xor", 500, Yfx),
            ("*", 400, Yfx),
            ("/", 400, Yfx),
            ("//", 400, Yfx),
            ("mod", 400, Yfx),
            ("rem", 400, Yfx),
            ("div", 400, Yfx),
            ("<<", 400, Yfx),
            (">>", 400, Yfx),
            ("**", 200, Xfx),
            ("^", 200, Xfy),
        ];
        let prefix: &[(&str, u32, OpType)] = &[
            (":-", 1200, Fx),
            ("?-", 1200, Fx),
            ("\\+", 900, Fy),
            ("-", 200, Fy),
            ("+", 200, Fy),
            ("\\", 200, Fy),
        ];
        for &(name, priority, typ) in infix {
            assert_eq!(t.infix(name), Some(OpDef { priority, typ }), "{name}");
        }
        for &(name, priority, typ) in prefix {
            assert_eq!(t.prefix(name), Some(OpDef { priority, typ }), "{name}");
        }
        for name in [",", "|", "?-", "\\+", "\\", "dynamic", "", "isx"] {
            let listed = infix.iter().any(|&(n, _, _)| n == name);
            assert_eq!(t.infix(name).is_some(), listed, "infix {name}");
        }
        for name in [",", "=", "*", "is", "", "--"] {
            let listed = prefix.iter().any(|&(n, _, _)| n == name);
            assert_eq!(t.prefix(name).is_some(), listed, "prefix {name}");
        }
    }

    #[test]
    fn both_fixities_coexist() {
        let t = OpTable::standard();
        assert!(t.prefix("-").is_some());
        assert!(t.infix("-").is_some());
        assert!(t.is_operator("is"));
        assert!(!t.is_operator("foo"));
    }
}
