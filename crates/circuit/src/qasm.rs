//! OpenQASM 2.0 export and import.
//!
//! Lets circuits produced by this stack (in particular, transpiled output)
//! be loaded into Qiskit or any other OpenQASM consumer — the natural
//! cross-check against the paper's original artifact. Gates outside
//! `qelib1.inc` are lowered structurally (SWAPZ to its defining CNOT pair,
//! MCX/MCZ rejected with an error so callers unroll first); annotations
//! and barriers become comments/barriers.
//!
//! [`from_qasm`] parses the same qelib1 subset back (the wire format the
//! planned `qc-serve` compile server accepts): it is a hardened
//! recursive-descent parser that rejects malformed programs with a typed
//! [`QasmError::Parse`] carrying line and column — never a panic — and
//! validates every qubit reference, arity and parameter before touching
//! [`Circuit`]. `// ANNOT(θ,φ)` comments round-trip back into
//! [`Gate::Annot`] so the paper's state annotations survive serialization.

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::Instruction;
use std::fmt::Write as _;

/// Errors raised during QASM export or import.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QasmError {
    /// The gate has no qelib1 representation; unroll the circuit first.
    UnsupportedGate(String),
    /// The program text is malformed at the given 1-based line/column.
    Parse {
        /// 1-based line of the offending token.
        line: usize,
        /// 1-based column of the offending token.
        col: usize,
        /// What went wrong.
        message: String,
    },
}

impl QasmError {
    fn parse(line: usize, col: usize, message: impl Into<String>) -> Self {
        QasmError::Parse {
            line,
            col,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for QasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QasmError::UnsupportedGate(g) => {
                write!(f, "gate '{g}' has no OpenQASM 2.0 lowering; unroll first")
            }
            QasmError::Parse { line, col, message } => {
                write!(f, "QASM parse error at {line}:{col}: {message}")
            }
        }
    }
}

impl std::error::Error for QasmError {}

/// Serializes a circuit as an OpenQASM 2.0 program.
///
/// # Errors
///
/// Returns [`QasmError::UnsupportedGate`] for multi-controlled or
/// arbitrary-unitary gates — run the transpiler's unroller first.
///
/// # Examples
///
/// ```
/// use qc_circuit::{qasm::to_qasm, Circuit};
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1).measure_all();
/// let text = to_qasm(&c).unwrap();
/// assert!(text.contains("h q[0];"));
/// assert!(text.contains("cx q[0],q[1];"));
/// ```
pub fn to_qasm(circuit: &Circuit) -> Result<String, QasmError> {
    let n = circuit.num_qubits();
    let mut out = String::new();
    let _ = writeln!(out, "OPENQASM 2.0;");
    let _ = writeln!(out, "include \"qelib1.inc\";");
    let _ = writeln!(out, "qreg q[{n}];");
    let _ = writeln!(out, "creg c[{n}];");
    for inst in circuit.instructions() {
        let q = &inst.qubits;
        let line = match &inst.gate {
            Gate::I => format!("id q[{}];", q[0]),
            Gate::X => format!("x q[{}];", q[0]),
            Gate::Y => format!("y q[{}];", q[0]),
            Gate::Z => format!("z q[{}];", q[0]),
            Gate::H => format!("h q[{}];", q[0]),
            Gate::S => format!("s q[{}];", q[0]),
            Gate::Sdg => format!("sdg q[{}];", q[0]),
            Gate::T => format!("t q[{}];", q[0]),
            Gate::Tdg => format!("tdg q[{}];", q[0]),
            Gate::Rx(t) => format!("rx({t}) q[{}];", q[0]),
            Gate::Ry(t) => format!("ry({t}) q[{}];", q[0]),
            Gate::Rz(t) => format!("rz({t}) q[{}];", q[0]),
            Gate::U1(l) => format!("u1({l}) q[{}];", q[0]),
            Gate::U2(p, l) => format!("u2({p},{l}) q[{}];", q[0]),
            Gate::U3(t, p, l) => format!("u3({t},{p},{l}) q[{}];", q[0]),
            Gate::Cx => format!("cx q[{}],q[{}];", q[0], q[1]),
            Gate::Cz => format!("cz q[{}],q[{}];", q[0], q[1]),
            Gate::Cp(l) => format!("cu1({l}) q[{}],q[{}];", q[0], q[1]),
            Gate::Swap => format!("swap q[{}],q[{}];", q[0], q[1]),
            Gate::SwapZ => format!("cx q[{1}],q[{0}];\ncx q[{0}],q[{1}];", q[0], q[1]),
            Gate::Ccx => format!("ccx q[{}],q[{}],q[{}];", q[0], q[1], q[2]),
            Gate::Cswap => format!("cswap q[{}],q[{}],q[{}];", q[0], q[1], q[2]),
            Gate::Reset => format!("reset q[{}];", q[0]),
            Gate::Measure => format!("measure q[{0}] -> c[{0}];", q[0]),
            Gate::Barrier(_) => {
                let args: Vec<String> = q.iter().map(|&i| format!("q[{i}]")).collect();
                format!("barrier {};", args.join(","))
            }
            Gate::Annot(t, p) => format!("// ANNOT({t},{p}) q[{}]", q[0]),
            g @ (Gate::Mcx(_) | Gate::Mcz(_) | Gate::Cu(_) | Gate::Unitary(_)) => {
                return Err(QasmError::UnsupportedGate(g.name().to_string()))
            }
        };
        let _ = writeln!(out, "{line}");
    }
    Ok(out)
}

/// Upper bound on a parsed register width — a hardening cap so a hostile
/// header like `qreg q[999999999];` cannot force giant allocations
/// downstream (the DAG and simulator allocate per wire).
const MAX_QASM_QUBITS: usize = 4096;

/// Parses an OpenQASM 2.0 program emitted by [`to_qasm`] (the qelib1
/// subset plus `// ANNOT(θ,φ)` comments) back into a [`Circuit`].
///
/// The parser is defensive by construction: every failure — unknown gate,
/// bad arity, out-of-range or duplicate qubit, non-finite parameter,
/// malformed syntax — returns a typed [`QasmError::Parse`] with the
/// 1-based line and column of the offending token. It never panics on any
/// input string.
///
/// # Errors
///
/// Returns [`QasmError::Parse`] on malformed input.
///
/// # Examples
///
/// ```
/// use qc_circuit::qasm::{from_qasm, to_qasm};
/// use qc_circuit::Circuit;
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1).measure_all();
/// let back = from_qasm(&to_qasm(&c).unwrap()).unwrap();
/// assert_eq!(back, c);
/// ```
pub fn from_qasm(src: &str) -> Result<Circuit, QasmError> {
    Parser::new(src).program()
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> QasmError {
        QasmError::parse(self.line, self.col, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    /// Skips spaces and newlines, but **not** comments — the statement
    /// loop inspects those itself (`// ANNOT` is significant).
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Consumes the rest of the current line, returning it.
    fn rest_of_line(&mut self) -> &'a str {
        let start = self.pos;
        while !matches!(self.peek(), None | Some(b'\n')) {
            self.bump();
        }
        let end = self.pos;
        self.bump(); // the newline, if any
        &self.src[start..end]
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), QasmError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected '{}', found {}",
                b as char,
                self.describe_next()
            )))
        }
    }

    fn describe_next(&self) -> String {
        match self.peek() {
            None => "end of input".into(),
            Some(b) => format!("'{}'", b as char),
        }
    }

    fn ident(&mut self) -> Result<&'a str, QasmError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'_') {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err(format!(
                "expected identifier, found {}",
                self.describe_next()
            )));
        }
        Ok(&self.src[start..self.pos])
    }

    /// `name[index]` — a register reference. Returns (name, index).
    fn reg_ref(&mut self) -> Result<(&'a str, usize), QasmError> {
        let name = self.ident()?;
        self.expect_byte(b'[')?;
        let idx = self.uint()?;
        self.expect_byte(b']')?;
        Ok((name, idx))
    }

    fn uint(&mut self) -> Result<usize, QasmError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err(format!("expected integer, found {}", self.describe_next())));
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err("integer out of range"))
    }

    /// Parameter expression: `+`/`-` chains of `*`/`/` chains of atoms,
    /// where an atom is a float literal, `pi`, a parenthesized expression,
    /// or a signed atom.
    fn expr(&mut self) -> Result<f64, QasmError> {
        let mut v = self.term()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'+') => {
                    self.bump();
                    v += self.term()?;
                }
                Some(b'-') => {
                    self.bump();
                    v -= self.term()?;
                }
                _ => return Ok(v),
            }
        }
    }

    fn term(&mut self) -> Result<f64, QasmError> {
        let mut v = self.factor()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'*') => {
                    self.bump();
                    v *= self.factor()?;
                }
                Some(b'/') => {
                    self.bump();
                    v /= self.factor()?;
                }
                _ => return Ok(v),
            }
        }
    }

    fn factor(&mut self) -> Result<f64, QasmError> {
        self.skip_ws();
        match self.peek() {
            Some(b'-') => {
                self.bump();
                Ok(-self.factor()?)
            }
            Some(b'+') => {
                self.bump();
                self.factor()
            }
            Some(b'(') => {
                self.bump();
                let v = self.expr()?;
                self.expect_byte(b')')?;
                Ok(v)
            }
            Some(b'p') | Some(b'P') => {
                let id = self.ident()?;
                if id.eq_ignore_ascii_case("pi") {
                    Ok(std::f64::consts::PI)
                } else {
                    Err(self.err(format!("unknown constant '{id}'")))
                }
            }
            Some(b) if b.is_ascii_digit() || b == b'.' => self.float(),
            _ => Err(self.err(format!(
                "expected number or 'pi', found {}",
                self.describe_next()
            ))),
        }
    }

    fn float(&mut self) -> Result<f64, QasmError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.')) {
            self.bump();
        }
        // Optional exponent.
        if matches!(self.peek(), Some(b'e' | b'E')) {
            let mark = (self.pos, self.line, self.col);
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.bump();
                }
            } else {
                (self.pos, self.line, self.col) = mark;
            }
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err(format!("malformed number '{}'", &self.src[start..self.pos])))
    }

    /// Comma-separated `q[i]` list up to the statement's `;`.
    fn qubit_list(&mut self, qreg: &str, width: usize) -> Result<Vec<usize>, QasmError> {
        let mut qs = Vec::new();
        loop {
            let (name, idx) = self.reg_ref()?;
            if name != qreg {
                return Err(self.err(format!("unknown quantum register '{name}'")));
            }
            if idx >= width {
                return Err(self.err(format!("qubit index {idx} out of range (qreg [{width}])")));
            }
            qs.push(idx);
            self.skip_ws();
            if self.peek() == Some(b',') {
                self.bump();
            } else {
                break;
            }
        }
        self.expect_byte(b';')?;
        if qs.len() > 1 {
            let mut sorted = qs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != qs.len() {
                return Err(self.err("duplicate qubit in operand list"));
            }
        }
        Ok(qs)
    }

    fn params(&mut self, count: usize, gate: &str) -> Result<Vec<f64>, QasmError> {
        let mut ps = Vec::new();
        self.skip_ws();
        if count == 0 {
            if self.peek() == Some(b'(') {
                return Err(self.err(format!("gate '{gate}' takes no parameters")));
            }
            return Ok(ps);
        }
        self.expect_byte(b'(')?;
        for i in 0..count {
            let v = self.expr()?;
            if !v.is_finite() {
                return Err(self.err(format!("non-finite parameter for gate '{gate}'")));
            }
            ps.push(v);
            if i + 1 < count {
                self.expect_byte(b',')?;
            }
        }
        self.expect_byte(b')')?;
        Ok(ps)
    }

    /// `// ANNOT(θ,φ) q[i]` — the exported state-annotation comment.
    fn annot(&mut self, qreg: &str, width: usize) -> Result<Instruction, QasmError> {
        self.expect_byte(b'(')?;
        let theta = self.expr()?;
        self.expect_byte(b',')?;
        let phi = self.expr()?;
        self.expect_byte(b')')?;
        if !theta.is_finite() || !phi.is_finite() {
            return Err(self.err("non-finite ANNOT parameter"));
        }
        let (name, idx) = self.reg_ref()?;
        if name != qreg {
            return Err(self.err(format!("unknown quantum register '{name}'")));
        }
        if idx >= width {
            return Err(self.err(format!("qubit index {idx} out of range (qreg [{width}])")));
        }
        Ok(Instruction::new(Gate::Annot(theta, phi), [idx]))
    }

    fn program(&mut self) -> Result<Circuit, QasmError> {
        // Header.
        self.skip_ws();
        let kw = self.ident()?;
        if kw != "OPENQASM" {
            return Err(self.err("program must start with 'OPENQASM 2.0;'"));
        }
        let major = self.expr()?;
        if (major - 2.0).abs() > 1e-9 {
            return Err(self.err(format!("unsupported OpenQASM version {major}")));
        }
        self.expect_byte(b';')?;

        let mut qreg: Option<(String, usize)> = None;
        let mut creg_width: Option<usize> = None;
        let mut insts: Vec<Instruction> = Vec::new();

        loop {
            self.skip_ws();
            let Some(b) = self.peek() else { break };
            // Comments: `// ANNOT(...)` is an annotation, anything else
            // is skipped.
            if b == b'/' {
                self.bump();
                if self.peek() != Some(b'/') {
                    return Err(self.err("stray '/'"));
                }
                self.bump();
                self.skip_ws_inline();
                if self.src[self.pos..].starts_with("ANNOT(") {
                    // Consume "ANNOT" then parse the annotation.
                    for _ in 0.."ANNOT".len() {
                        self.bump();
                    }
                    let (qname, width) = qreg
                        .as_ref()
                        .map(|(n, w)| (n.clone(), *w))
                        .ok_or_else(|| self.err("ANNOT before qreg declaration"))?;
                    insts.push(self.annot(&qname, width)?);
                    // Anything further on the comment line is still a
                    // comment.
                    self.rest_of_line();
                } else {
                    self.rest_of_line();
                }
                continue;
            }
            let stmt = self.ident()?;
            match stmt {
                "include" => {
                    // `include "qelib1.inc";` — accept any include target.
                    self.skip_ws();
                    if self.peek() == Some(b'"') {
                        self.bump();
                        while !matches!(self.peek(), None | Some(b'"')) {
                            self.bump();
                        }
                        if self.peek() != Some(b'"') {
                            return Err(self.err("unterminated include string"));
                        }
                        self.bump();
                    }
                    self.expect_byte(b';')?;
                }
                "qreg" => {
                    let (name, width) = self.reg_decl()?;
                    if qreg.is_some() {
                        return Err(self.err("multiple qreg declarations are not supported"));
                    }
                    qreg = Some((name.to_string(), width));
                }
                "creg" => {
                    let (_, width) = self.reg_decl()?;
                    creg_width = Some(width);
                }
                "measure" => {
                    let (qname, width) = qreg
                        .as_ref()
                        .map(|(n, w)| (n.clone(), *w))
                        .ok_or_else(|| self.err("statement before qreg declaration"))?;
                    let (name, idx) = self.reg_ref()?;
                    if name != qname {
                        return Err(self.err(format!("unknown quantum register '{name}'")));
                    }
                    if idx >= width {
                        return Err(self.err(format!("qubit index {idx} out of range")));
                    }
                    self.expect_byte(b'-')?;
                    self.expect_byte(b'>')?;
                    let (_, cidx) = self.reg_ref()?;
                    if let Some(cw) = creg_width {
                        if cidx >= cw {
                            return Err(self.err(format!("classical index {cidx} out of range")));
                        }
                    }
                    self.expect_byte(b';')?;
                    insts.push(Instruction::new(Gate::Measure, [idx]));
                }
                name => {
                    let (qname, width) = qreg
                        .as_ref()
                        .map(|(n, w)| (n.clone(), *w))
                        .ok_or_else(|| self.err("statement before qreg declaration"))?;
                    insts.push(self.gate_stmt(name, &qname, width)?);
                }
            }
        }
        let (_, width) = qreg.ok_or_else(|| self.err("program declares no qreg"))?;
        let mut c = Circuit::new(width);
        for inst in insts {
            c.push_instruction(inst);
        }
        Ok(c)
    }

    fn skip_ws_inline(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.bump();
        }
    }

    fn reg_decl(&mut self) -> Result<(&'a str, usize), QasmError> {
        let (name, width) = {
            let name = self.ident()?;
            self.expect_byte(b'[')?;
            let w = self.uint()?;
            self.expect_byte(b']')?;
            (name, w)
        };
        self.expect_byte(b';')?;
        if width > MAX_QASM_QUBITS {
            return Err(self.err(format!(
                "register width {width} exceeds the supported maximum {MAX_QASM_QUBITS}"
            )));
        }
        Ok((name, width))
    }

    fn gate_stmt(
        &mut self,
        name: &str,
        qreg: &str,
        width: usize,
    ) -> Result<Instruction, QasmError> {
        // (arity, param count) per supported qelib1 gate; `barrier` is
        // variadic and handled separately.
        let (arity, nparams) = match name {
            "id" | "x" | "y" | "z" | "h" | "s" | "sdg" | "t" | "tdg" | "reset" => (1, 0),
            "rx" | "ry" | "rz" | "u1" => (1, 1),
            "u2" => (1, 2),
            "u3" => (1, 3),
            "cx" | "cz" | "swap" => (2, 0),
            "cu1" => (2, 1),
            "ccx" | "cswap" => (3, 0),
            "barrier" => {
                let qs = self.qubit_list(qreg, width)?;
                let n = qs.len();
                return Ok(Instruction::new(Gate::Barrier(n), qs));
            }
            other => {
                return Err(self.err(format!("unknown gate '{other}'")));
            }
        };
        let ps = self.params(nparams, name)?;
        let qs = self.qubit_list(qreg, width)?;
        if qs.len() != arity {
            return Err(self.err(format!(
                "gate '{name}' expects {arity} qubit(s), got {}",
                qs.len()
            )));
        }
        let gate = match name {
            "id" => Gate::I,
            "x" => Gate::X,
            "y" => Gate::Y,
            "z" => Gate::Z,
            "h" => Gate::H,
            "s" => Gate::S,
            "sdg" => Gate::Sdg,
            "t" => Gate::T,
            "tdg" => Gate::Tdg,
            "reset" => Gate::Reset,
            "rx" => Gate::Rx(ps[0]),
            "ry" => Gate::Ry(ps[0]),
            "rz" => Gate::Rz(ps[0]),
            "u1" => Gate::U1(ps[0]),
            "u2" => Gate::U2(ps[0], ps[1]),
            "u3" => Gate::U3(ps[0], ps[1], ps[2]),
            "cx" => Gate::Cx,
            "cz" => Gate::Cz,
            "cu1" => Gate::Cp(ps[0]),
            "swap" => Gate::Swap,
            "ccx" => Gate::Ccx,
            "cswap" => Gate::Cswap,
            _ => unreachable!("filtered above"),
        };
        Ok(Instruction::new(gate, qs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exports_basic_program() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cx(0, 1)
            .ccx(0, 1, 2)
            .u3(0.1, 0.2, 0.3, 2)
            .barrier()
            .measure_all();
        let text = to_qasm(&c).unwrap();
        assert!(text.starts_with("OPENQASM 2.0;"));
        assert!(text.contains("qreg q[3];"));
        assert!(text.contains("ccx q[0],q[1],q[2];"));
        assert!(text.contains("u3(0.1,0.2,0.3) q[2];"));
        assert!(text.contains("barrier q[0],q[1],q[2];"));
        assert!(text.contains("measure q[1] -> c[1];"));
    }

    #[test]
    fn swapz_lowers_to_two_cx() {
        let mut c = Circuit::new(2);
        c.swapz(0, 1);
        let text = to_qasm(&c).unwrap();
        assert!(text.contains("cx q[1],q[0];\ncx q[0],q[1];"));
    }

    #[test]
    fn annot_becomes_comment() {
        let mut c = Circuit::new(1);
        c.annot_zero(0);
        let text = to_qasm(&c).unwrap();
        assert!(text.contains("// ANNOT(0,0) q[0]"));
    }

    #[test]
    fn rejects_unlowered_gates() {
        let mut c = Circuit::new(4);
        c.mcx(&[0, 1, 2], 3);
        assert!(matches!(to_qasm(&c), Err(QasmError::UnsupportedGate(_))));
    }

    #[test]
    fn transpiled_output_always_exports() {
        // The device basis is exportable by construction.
        let mut c = Circuit::new(2);
        c.u1(0.5, 0)
            .u2(0.1, 0.2, 1)
            .u3(1.0, 2.0, 3.0, 0)
            .cx(0, 1)
            .measure_all();
        let text = to_qasm(&c).unwrap();
        assert_eq!(text.matches("cx ").count(), 1);
    }

    #[test]
    fn parses_basic_program() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cx(0, 1)
            .ccx(0, 1, 2)
            .u3(0.1, 0.2, 0.3, 2)
            .barrier()
            .measure_all();
        let back = from_qasm(&to_qasm(&c).unwrap()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn parses_pi_expressions() {
        let src = "OPENQASM 2.0;\nqreg q[1];\nrz(pi/2) q[0];\nrx(-pi/4) q[0];\nry(2*pi) q[0];\nu1(pi/2+pi/4) q[0];\n";
        let c = from_qasm(src).unwrap();
        let insts = c.instructions();
        assert!(
            matches!(insts[0].gate, Gate::Rz(t) if (t - std::f64::consts::FRAC_PI_2).abs() < 1e-12)
        );
        assert!(
            matches!(insts[1].gate, Gate::Rx(t) if (t + std::f64::consts::FRAC_PI_4).abs() < 1e-12)
        );
        assert!(
            matches!(insts[2].gate, Gate::Ry(t) if (t - 2.0 * std::f64::consts::PI).abs() < 1e-12)
        );
    }

    #[test]
    fn annot_round_trips() {
        let mut c = Circuit::new(2);
        c.h(1).annot_zero(0).cx(0, 1);
        let back = from_qasm(&to_qasm(&c).unwrap()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let src = "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n";
        match from_qasm(src) {
            Err(QasmError::Parse { line, message, .. }) => {
                assert_eq!(line, 3);
                assert!(message.contains("frobnicate"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_out_of_range_and_duplicate_qubits() {
        let base = "OPENQASM 2.0;\nqreg q[2];\n";
        assert!(matches!(
            from_qasm(&format!("{base}x q[5];")),
            Err(QasmError::Parse { .. })
        ));
        assert!(matches!(
            from_qasm(&format!("{base}cx q[1],q[1];")),
            Err(QasmError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_malformed_headers_and_registers() {
        assert!(matches!(from_qasm(""), Err(QasmError::Parse { .. })));
        assert!(matches!(from_qasm("x q[0];"), Err(QasmError::Parse { .. })));
        assert!(matches!(
            from_qasm("OPENQASM 3.0;\nqreg q[1];"),
            Err(QasmError::Parse { .. })
        ));
        // Hostile register width.
        assert!(matches!(
            from_qasm("OPENQASM 2.0;\nqreg q[999999999];"),
            Err(QasmError::Parse { .. })
        ));
        // No qreg at all.
        assert!(matches!(
            from_qasm("OPENQASM 2.0;\ncreg c[2];"),
            Err(QasmError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_wrong_arity_and_params() {
        let base = "OPENQASM 2.0;\nqreg q[3];\n";
        assert!(matches!(
            from_qasm(&format!("{base}cx q[0];")),
            Err(QasmError::Parse { .. })
        ));
        assert!(matches!(
            from_qasm(&format!("{base}h(0.5) q[0];")),
            Err(QasmError::Parse { .. })
        ));
        assert!(matches!(
            from_qasm(&format!("{base}rx() q[0];")),
            Err(QasmError::Parse { .. })
        ));
        // Division by zero makes a non-finite angle.
        assert!(matches!(
            from_qasm(&format!("{base}rx(1/0) q[0];")),
            Err(QasmError::Parse { .. })
        ));
    }

    #[test]
    fn fuzzed_garbage_never_panics() {
        // A deterministic pile of adversarial strings; the parser must
        // return typed errors (or valid circuits), never panic.
        let cases = [
            "OPENQASM 2.0; qreg q[1]; rx(((((1) q[0];",
            "OPENQASM 2.0; qreg q[1]; u3(1,2 q[0];",
            "OPENQASM 2.0;;;;;",
            "OPENQASM 2.0; qreg q[1]; measure q[0] -> ;",
            "OPENQASM 2.0; qreg q[1]; cx q[0],r[1];",
            "OPENQASM 2.0; qreg q[1]; // ANNOT(nonsense) q[0]",
            "OPENQASM 2.0; qreg q[1]; barrier ;",
            "OPENQASM 2.0; include \"unterminated",
            "\u{0}\u{1}\u{2}",
            "OPENQASM 2.0; qreg q[1]; x q[0]; garbage",
            "OPENQASM 2.0; qreg q[18446744073709551616];",
        ];
        for src in cases {
            let _ = from_qasm(src);
        }
    }

    #[test]
    fn round_trip_random_exportable_circuits() {
        // Property test over `random_circuit` families: keep only gates
        // `to_qasm` emits losslessly (SwapZ lowers to two CNOTs, so its
        // import differs structurally; Mcx/Mcz/Cu/Unitary are rejected).
        use crate::testing::random_circuit;
        for seed in 0..40u64 {
            let c = random_circuit(4, 30, seed);
            let kept: Vec<_> = c
                .instructions()
                .iter()
                .filter(|i| {
                    !matches!(
                        i.gate,
                        Gate::SwapZ | Gate::Mcx(_) | Gate::Mcz(_) | Gate::Cu(_) | Gate::Unitary(_)
                    )
                })
                .cloned()
                .collect();
            let mut filtered = Circuit::new(c.num_qubits());
            for inst in kept {
                filtered.push_instruction(inst);
            }
            let text = to_qasm(&filtered).unwrap();
            let back = from_qasm(&text).unwrap();
            assert_eq!(back, filtered, "round trip diverged for seed {seed}");
        }
    }
}
