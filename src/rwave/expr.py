"""Symbolic scalar expressions over named variables.

A small self-contained expression engine: infix parsing, printing,
exact differentiation, light simplification, numeric evaluation on
scalars or numpy arrays, and probabilistic zero testing on box domains.

Grammar: infix with `+ - * / ^` (`^` right-associative), parentheses,
function calls `sqrt ln exp abs sin cos`, and `|e|` as sugar for
`abs(e)`.  Integer literals are kept as exact rationals; literals with
a decimal point or exponent are floats.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import re
import threading
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

FUNCTION_NAMES = ("neg", "sqrt", "ln", "abs", "exp", "sin", "cos")

_UNARY_EVAL = {
    "neg": np.negative,
    "sqrt": np.sqrt,
    "ln": np.log,
    "abs": np.abs,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
}
_BIN_EVAL = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": np.true_divide,
    "^": lambda a, b: np.power(np.asarray(a, dtype=float), b),
}


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Malformed input text; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    def __init__(self, name, offset):
        ParseError.__init__(self, f"unknown identifier '{name}'", offset)
        self.name = name


class EvalDomainError(ExprError):
    """Evaluation left the real domain (sqrt/ln of a negative, 0^neg, x/0)."""


class MissingVariableError(ExprError):
    pass


class DomainExhausted(ExprError):
    """Too many random samples hit singularities during zero testing."""


def _as_expr(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    if isinstance(value, float):
        return Const(value)
    raise TypeError(f"cannot coerce {value!r} to Expr")


class Expr:
    """Immutable expression node, interned: building the same structure
    twice returns the same node, so ``==`` and hashing are by identity.
    Float constants are keyed by their bits (``0.0`` and ``-0.0`` differ)
    and a NaN constant equals nothing.  Safe to share across threads.

    A node keeps its ``simplify`` result and, per variable, its ``diff``
    result, for as long as it lives.  A derivative may hold its own node
    (``exp(a)``, ``a^b``, ``0*b``): such cycles are left to the cyclic
    collector.  Racing threads store the same interned result."""

    __slots__ = ("__weakref__", "_simplified", "_diffs")

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def variables(self) -> frozenset:
        raise NotImplementedError

    def evaluate(self, env: Mapping[str, object], strict: bool = True):
        """Evaluate with variable values from ``env``.

        Values may be floats or numpy arrays (broadcast together).  With
        ``strict=True`` a domain violation raises :class:`EvalDomainError`;
        with ``strict=False`` bad lanes become NaN for the caller to mask.
        """
        raise NotImplementedError

    def diff(self, name: str) -> "Expr":
        """d/d``name``, derived once per node and variable."""
        diffs = self._diffs
        if diffs is None:
            diffs = {}
            object.__setattr__(self, "_diffs", diffs)
        d = diffs.get(name)
        if d is None:
            d = diffs[name] = self._derive(name)
        return d

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        raise NotImplementedError

    # operator sugar, used heavily when assembling systems
    def __add__(self, other):
        return Bin("+", self, _as_expr(other))

    def __radd__(self, other):
        return Bin("+", _as_expr(other), self)

    def __sub__(self, other):
        return Bin("-", self, _as_expr(other))

    def __rsub__(self, other):
        return Bin("-", _as_expr(other), self)

    def __mul__(self, other):
        return Bin("*", self, _as_expr(other))

    def __rmul__(self, other):
        return Bin("*", _as_expr(other), self)

    def __truediv__(self, other):
        return Bin("/", self, _as_expr(other))

    def __rtruediv__(self, other):
        return Bin("/", _as_expr(other), self)

    def __pow__(self, other):
        return Bin("^", self, _as_expr(other))

    def __neg__(self):
        return Call("neg", self)

    def __repr__(self):
        return f"<Expr {self}>"


_NODES = weakref.WeakValueDictionary()  # (class, structure key) -> node
_NODES_LOCK = threading.Lock()


def _node(cls, key, *fields):
    """The one live ``cls`` node with structure ``key`` and ``fields`` in
    ``cls.__slots__`` order; children enter keys by ``id()``, safe as a node
    holds its children.  Hits read the weak refs in ``_NODES.data``
    directly; inserts lock, so threads never get two."""
    ref = _NODES.data.get((cls, key))
    node = None if ref is None else ref()
    if node is None:
        node = object.__new__(cls)
        object.__setattr__(node, "_simplified", None)
        object.__setattr__(node, "_diffs", None)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
        with _NODES_LOCK:
            node = _NODES.setdefault((cls, key), node)
    return node


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        if isinstance(value, float):
            value = float(value)  # np.float64 prints as a plain float
            # a NaN gets a key of its own, so it equals no other node
            key = object() if math.isnan(value) else value.hex()
            return _node(cls, key, value)
        if isinstance(value, int):
            value = Fraction(value)
        elif not isinstance(value, Fraction):
            raise TypeError(f"bad constant {value!r}")
        return _node(cls, (value.numerator, value.denominator), value)

    @property
    def is_exact(self):
        return isinstance(self.value, Fraction)

    def variables(self):
        return frozenset()

    def evaluate(self, env, strict=True):
        return float(self.value)

    def diff(self, name):
        return Const(0)

    def substitute(self, mapping):
        return self

    def __str__(self):
        if isinstance(self.value, Fraction):
            if self.value.denominator == 1:
                return str(self.value.numerator) if self.value >= 0 \
                    else f"(-{-self.value.numerator})"
            s = f"{self.value.numerator}/{self.value.denominator}"
            return s if self.value >= 0 else f"({s})"
        return repr(self.value) if self.value >= 0 else f"({self.value!r})"


ZERO = Const(0)
ONE = Const(1)


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name):
        return _node(cls, name, name)

    def variables(self):
        return frozenset((self.name,))

    def evaluate(self, env, strict=True):
        try:
            return env[self.name]
        except KeyError:
            raise MissingVariableError(f"no value assigned for '{self.name}'")

    def diff(self, name):
        return ONE if name == self.name else ZERO

    def substitute(self, mapping):
        return mapping.get(self.name, self)

    def __str__(self):
        return self.name


_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}


class Bin(Expr):
    __slots__ = ("op", "left", "right")

    def __new__(cls, op, left, right):
        if op not in _PREC:
            raise ValueError(f"bad operator {op!r}")
        return _node(cls, (op, id(left), id(right)), op, left, right)

    def variables(self):
        return self.left.variables() | self.right.variables()

    def evaluate(self, env, strict=True):
        a = self.left.evaluate(env, strict)
        b = self.right.evaluate(env, strict)
        op = self.op
        with np.errstate(all="ignore"):
            if strict and op == "/" and np.any(b == 0):
                raise EvalDomainError(f"division by zero in {self}")
            # power: non-integer exponents require a positive base
            if strict and op == "^":
                bad = (np.asarray(a) < 0) & (np.asarray(b) != np.floor(b))
                if np.any(bad):
                    raise EvalDomainError(
                        f"negative base with non-integer exponent in {self}")
                if np.any((np.asarray(a) == 0) & (np.asarray(b) < 0)):
                    raise EvalDomainError(f"zero base with negative exponent in {self}")
            return _BIN_EVAL[op](a, b)

    def _derive(self, name):
        a, b = self.left, self.right
        da, db = a.diff(name), b.diff(name)
        op = self.op
        if op == "+":
            return Bin("+", da, db)
        if op == "-":
            return Bin("-", da, db)
        if op == "*":
            return Bin("+", Bin("*", da, b), Bin("*", a, db))
        if op == "/":
            num = Bin("-", Bin("*", da, b), Bin("*", a, db))
            return Bin("/", num, Bin("^", b, Const(2)))
        # power
        if isinstance(b, Const):
            # b * a^(b-1) * a'
            if b.is_exact:
                expo = Const(b.value - 1)
            else:
                expo = Const(b.value - 1.0)
            return Bin("*", Bin("*", b, Bin("^", a, expo)), da)
        # general: a^b * (b' ln a + b a'/a)
        term = Bin("+", Bin("*", db, Call("ln", a)),
                   Bin("*", b, Bin("/", da, a)))
        return Bin("*", self, term)

    def substitute(self, mapping):
        return Bin(self.op, self.left.substitute(mapping),
                   self.right.substitute(mapping))

    def __str__(self):
        p = _PREC[self.op]
        ls = _wrap(self.left, p, right_side=False, parent=self.op)
        rs = _wrap(self.right, p, right_side=True, parent=self.op)
        return f"{ls} {self.op} {rs}" if self.op in "+-" else f"{ls}{self.op}{rs}"


def _wrap(e, parent_prec, right_side, parent):
    if isinstance(e, Call) and e.fn == "neg" and parent == "^" and not right_side:
        return f"({e})"
    if isinstance(e, Const) and isinstance(e.value, Fraction) \
            and e.value.denominator != 1 and e.value >= 0:
        return f"({e})"     # 3/2; a negative constant prints its own parentheses
    if isinstance(e, Bin):
        p = _PREC[e.op]
        need = p < parent_prec
        if p == parent_prec:
            if parent == "^":
                need = not right_side  # right-associative
            elif parent in ("-", "/"):
                need = right_side
            elif e.op in ("-", "/") and right_side:
                need = True
        if need:
            return f"({e})"
    return str(e)


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __new__(cls, fn, arg):
        if fn not in FUNCTION_NAMES:
            raise ValueError(f"unknown function {fn!r}")
        return _node(cls, (fn, id(arg)), fn, arg)

    def variables(self):
        return self.arg.variables()

    def evaluate(self, env, strict=True):
        v = self.arg.evaluate(env, strict)
        if strict:
            if self.fn == "sqrt" and np.any(np.asarray(v) < 0):
                raise EvalDomainError(f"sqrt of negative value in {self}")
            if self.fn == "ln" and np.any(np.asarray(v) <= 0):
                raise EvalDomainError(f"ln of non-positive value in {self}")
        with np.errstate(all="ignore"):
            return _UNARY_EVAL[self.fn](v)

    def _derive(self, name):
        a = self.arg
        da = a.diff(name)
        fn = self.fn
        if fn == "neg":
            return Call("neg", da)
        if fn == "sqrt":
            return Bin("/", da, Bin("*", Const(2), Call("sqrt", a)))
        if fn == "ln":
            return Bin("/", da, a)
        if fn == "abs":
            # sign(a) a' written as a a'/|a|; undefined at a = 0
            return Bin("/", Bin("*", a, da), Call("abs", a))
        if fn == "exp":
            return Bin("*", Call("exp", a), da)
        if fn == "sin":
            return Bin("*", Call("cos", a), da)
        if fn == "cos":
            return Call("neg", Bin("*", Call("sin", a), da))
        raise AssertionError(fn)

    def substitute(self, mapping):
        return Call(self.fn, self.arg.substitute(mapping))

    def __str__(self):
        if self.fn == "neg":
            inner = self.arg
            if isinstance(inner, Bin) and _PREC[inner.op] <= 20:
                return f"-({inner})"
            return f"-{inner}"
        return f"{self.fn}({self.arg})"


# ---------------------------------------------------------------------------
# compiled evaluation

_BIN_CODE = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}",
             "/": "true_divide({}, {})",
             "^": "power(asarray({}, dtype=float), {})"}


def _lanes(env, n=1):
    """Broadcast length of the 1-D array values of ``env``; ``n`` when
    every value is a scalar."""
    for v in env.values():
        if isinstance(v, np.ndarray) and v.ndim and v.shape[0] != 1:
            n = v.shape[0]
    return n


def _late_lanes(env, n):
    """Leading shape of a late step's output: (B, n) when a value of
    ``env`` is a block of shape (B, 1), else (``_lanes(env, n)``,)."""
    for v in env.values():
        if isinstance(v, np.ndarray) and v.ndim == 2:
            return (v.shape[0], n)
    return (_lanes(env, n),)


class BoundKernel:
    """A staged kernel with its early part evaluated at ``n`` lanes.

    Calling it with an env of the late names evaluates the rest and
    returns the (n, m) array the unstaged kernel gives on the full env.
    Late values of shape (B, 1) are a block of B envs: they broadcast
    against the early (n,) arrays, never repeated, and row b of the
    (B, n, m) result has the bits of a call with row b's values.
    ``rows(rows)`` is the same kernel at a subset of the lanes, its early
    values sliced once.
    """

    __slots__ = ("_late", "_early", "n")

    def __init__(self, late, early, n):
        self._late, self._early, self.n = late, early, n

    def __call__(self, env):
        return self._late(self._early, self.n, env)

    def rows(self, rows):
        return BoundKernel(self._late, tuple(
            v[rows] if np.ndim(v) and np.shape(v)[0] != 1 else v
            for v in self._early), len(rows))


_CODE_CACHE_SIZE = 512   # distinct kernel sources kept per process


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(src):
    return compile(src, "<compiled expressions>", "exec")


def compile_exprs(exprs, late=()):
    """Compile ``exprs`` into one generated function ``kernel(env)``.

    The kernel returns an (n, m) float array with column j equal to
    ``exprs[j].evaluate(env, strict=False)`` bitwise, broadcast to the n
    lanes of ``env`` (see ``_lanes``).  It runs the same numpy operations
    as the tree-walk, but once per distinct subexpression and under one
    ``np.errstate``; variable-free subexpressions are evaluated once here,
    each node from its children's values.
    Domain violations give NaN lanes, and a missing variable raises
    MissingVariableError.

    The code object of each distinct generated source is kept for the
    life of the process (``_code``: keyed on the source text alone, at
    most ``_CODE_CACHE_SIZE`` sources, least recently used dropped), and
    each kernel is exec'd from it in a fresh namespace.  The text names
    slots and variables, never a constant's value: folded constants are
    bound in the kernel's own namespace.  So trees of one shape share one
    code object and each kernel keeps its own constants, and the cache
    holds no node alive.  On two small expressions over 20 lanes a new
    source costs about ten tree-walks, one already compiled about two, so
    a kernel pays only for expressions evaluated over and over.

    With ``late`` names the kernel is staged (partial evaluation), and
    the result is its bind step ``bind(env)``: it evaluates, once, every
    subtree that contains no late name, and the BoundKernel it returns
    evaluates only the rest when called with the late names, one env or a
    block of them (late values of shape (B, 1)).  Whole subtrees are
    hoisted and nothing is reassociated, so each lane gets the bits of the
    unstaged kernel on the same env.  A missing name raises at the step
    that reads it.
    """
    exprs = tuple(exprs)
    late = frozenset(late)
    ns = {"errstate": np.errstate, "empty": np.empty, "asarray": np.asarray,
          "true_divide": np.true_divide, "power": np.power, "lanes": _lanes,
          "late_lanes": _late_lanes,
          "MissingVariableError": MissingVariableError,
          "BoundKernel": BoundKernel, **_UNARY_EVAL}
    early_body, late_body = [], []
    slots = {}        # node -> slot name
    consts = set()    # slot names bound to values computed here
    late_slots = set()
    handed = {}       # early slot names the late step reads, in order

    def visit(e):
        if e in slots:
            return slots[e]
        kids = [visit(c) for c in ((e.left, e.right) if isinstance(e, Bin)
                                   else (e.arg,) if isinstance(e, Call)
                                   else ())]
        name = slots[e] = f"t{len(slots)}"
        if isinstance(e, Var):
            line = f"env[{e.name!r}]"
        elif all(k in consts for k in kids):
            # the tree-walk's operation on the children's folded values
            vals = [ns[k] for k in kids]
            with np.errstate(all="ignore"):
                ns[name] = (_BIN_EVAL[e.op](*vals) if isinstance(e, Bin)
                            else _UNARY_EVAL[e.fn](*vals) if isinstance(e, Call)
                            else e.evaluate({}))
            consts.add(name)
            return name
        elif isinstance(e, Bin):
            line = _BIN_CODE[e.op].format(*kids)
        else:
            line = f"{e.fn}({kids[0]})"
        if (e.name in late if isinstance(e, Var)
                else any(k in late_slots for k in kids)):
            late_slots.add(name)
            handed.update(dict.fromkeys(
                k for k in kids if k not in consts and k not in late_slots))
            late_body.append(f"            {name} = {line}")
        else:
            early_body.append(f"            {name} = {line}")
        return name

    results = [visit(e) for e in exprs]
    handed.update(dict.fromkeys(
        r for r in results if r not in consts and r not in late_slots))

    def guarded(body):
        if not body:
            return []
        return ["    try:", '        with errstate(all="ignore"):', *body,
                "    except KeyError as exc:",
                "        raise MissingVariableError(",
                "            f\"no value assigned for '{exc.args[0]}'\")"
                " from None"]

    out = [f"    out = empty({'late_lanes(env, n)' if late else '(n,)'} "
           f"+ ({len(exprs)},))",
           *(f"    out[..., {j}] = {name}" for j, name in enumerate(results)),
           "    return out"]
    if late:
        early = "".join(f"{name}, " for name in handed)
        lines = ["def bind(env):", *guarded(early_body),
                 f"    return BoundKernel(late, ({early}), lanes(env))",
                 "def late(early, n, env):",
                 *([f"    ({early}) = early"] if handed else []),
                 *guarded(late_body), *out]
    else:
        lines = ["def kernel(env):", *guarded(early_body),
                 "    n = lanes(env)", *out]
    exec(_code("\n".join(lines)), ns)
    return ns["bind" if late else "kernel"]


# ---------------------------------------------------------------------------
# simplification

def _const_val(e):
    return e.value if isinstance(e, Const) else None


def _fold_binary(op, a, b):
    """Fold two constants; exact when both are Fractions."""
    try:
        if op == "+":
            return Const(a + b)
        if op == "-":
            return Const(a - b)
        if op == "*":
            return Const(a * b)
        if op == "/":
            if b == 0:
                return None
            if isinstance(a, Fraction) and isinstance(b, Fraction):
                return Const(a / b)
            return Const(float(a) / float(b))
        if op == "^":
            if isinstance(a, Fraction) and isinstance(b, Fraction) \
                    and b.denominator == 1 and abs(b.numerator) <= 64:
                if a == 0 and b < 0:
                    return None
                return Const(a ** b.numerator)
            fa, fb = float(a), float(b)
            if fa < 0 and fb != int(fb):
                return None
            if fa == 0 and fb < 0:
                return None
            return Const(fa ** fb)
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    return None


def _flatten(op, e, out):
    if isinstance(e, Bin) and e.op == op:
        _flatten(op, e.left, out)
        _flatten(op, e.right, out)
    else:
        out.append(e)


def _rebuild(op, terms):
    acc = terms[0]
    for t in terms[1:]:
        acc = Bin(op, acc, t)
    return acc


def simplify(e: Expr) -> Expr:
    """Light normalization: constant folding, 0/1 identities, x-x -> 0,
    a/a -> 1, flattening of nested sums/products, exp(a)*exp(b) -> exp(a+b).

    Deliberately not a canonicalizer; numeric zero testing picks up the
    slack when deciding identities.
    """
    for _ in range(4):
        simplified = _simplify_once(e)
        if simplified is e:
            return simplified
        e = simplified
    return e


_SELF = object()  # kept by a node that simplifies to itself, in place of a cycle


def _simplify_once(e: Expr) -> Expr:
    if isinstance(e, (Const, Var)):
        return e
    done = e._simplified
    if done is None:
        done = _simplify_node(e)
        object.__setattr__(e, "_simplified", _SELF if done is e else done)
    return e if done is _SELF else done


def _simplify_node(e):
    if isinstance(e, Call):
        a = _simplify_once(e.arg)
        if e.fn == "neg":
            return _negate_simple(a)
        if isinstance(a, Const) and a.is_exact:
            # exact-value folds only, to keep Const exactness honest
            if e.fn == "abs":
                return Const(abs(a.value))
            if e.fn == "exp" and a.value == 0:
                return ONE
            if e.fn == "ln" and a.value == 1:
                return ZERO
            if e.fn == "sqrt" and a.value >= 0:
                num, den = a.value.numerator, a.value.denominator
                rn, rd = math.isqrt(num), math.isqrt(den)
                if rn * rn == num and rd * rd == den:
                    return Const(Fraction(rn, rd))
            if e.fn in ("sin", "cos") and a.value == 0:
                return ZERO if e.fn == "sin" else ONE
        return Call(e.fn, a)

    assert isinstance(e, Bin)
    a = _simplify_once(e.left)
    b = _simplify_once(e.right)
    op = e.op
    va, vb = _const_val(a), _const_val(b)
    if va is not None and vb is not None:
        folded = _fold_binary(op, va, vb)
        if folded is not None:
            return folded

    if op == "+":
        return _simplify_sum([a, b])
    if op == "-":
        if a is b:
            return ZERO
        if vb is not None and vb == 0:
            return a
        if va is not None and va == 0:
            return Call("neg", b)
        return _simplify_sum([a, Call("neg", b)]) if isinstance(b, (Bin, Call)) \
            else Bin("-", a, b)
    if op == "*":
        return _simplify_ratio([a, b], [])
    if op == "/":
        return _simplify_ratio([a], [b])
    if op == "^":
        if vb is not None:
            if vb == 1:
                return a
            if vb == 0:
                return ONE
        if va is not None and va == 1:
            return ONE
        return Bin("^", a, b)
    raise AssertionError(op)


def _term_coefficient(t):
    """Split a term into (exact coefficient, core) for like-term grouping;
    returns None as the coefficient for float-scaled terms (not grouped)."""
    neg = False
    while isinstance(t, Call) and t.fn == "neg":
        neg = not neg
        t = t.arg
    coeff = Fraction(-1) if neg else Fraction(1)
    factors = []
    _flatten("*", t, factors)
    rest = []
    for f in factors:
        v = _const_val(f)
        if isinstance(v, Fraction):
            coeff *= v
        elif v is not None:
            return None, None
        else:
            rest.append(f)
    if not rest:
        return coeff, ONE
    return coeff, _rebuild("*", rest)


def _simplify_sum(parts):
    terms = []
    for p in parts:
        _flatten("+", p, terms)
    const = Fraction(0)
    fconst = 0.0
    has_f = False
    grouped = {}  # core Expr -> summed Fraction coefficient
    loose = []
    for t in terms:
        v = _const_val(t)
        if isinstance(v, Fraction):
            const += v
            continue
        if v is not None:
            fconst += v
            has_f = True
            continue
        c, core = _term_coefficient(t)
        if c is None:
            loose.append(t)
            continue
        grouped[core] = grouped.get(core, 0) + c
    out = []
    for core, c in grouped.items():
        if c == 0:
            continue
        if core is ONE:
            const += c
        elif c == 1:
            out.append(core)
        elif c == -1:
            out.append(Call("neg", core))
        else:
            out.append(Bin("*", Const(c), core))
    out.extend(loose)
    if has_f:
        total = float(const) + fconst
        if total != 0.0:
            out.append(Const(total))
    elif const != 0:
        out.append(Const(const))
    if not out:
        return ZERO
    return _rebuild("+", out)


def _split_rational_signed(t, num, den):
    """Flatten through *, /, and neg into numerator/denominator factor
    lists; returns the sign parity contributed by neg wrappers."""
    sign = 1
    if isinstance(t, Call) and t.fn == "neg":
        return -_split_rational_signed(t.arg, num, den)
    if isinstance(t, Bin) and t.op == "*":
        sign *= _split_rational_signed(t.left, num, den)
        sign *= _split_rational_signed(t.right, num, den)
        return sign
    if isinstance(t, Bin) and t.op == "/":
        sign *= _split_rational_signed(t.left, num, den)
        sign *= _split_rational_signed(t.right, den, num)
        return sign
    num.append(t)
    return sign


def _simplify_ratio(num_parts, den_parts):
    """Products and quotients share one path: flatten both sides, cancel
    equal non-constant factors, rebuild."""
    num, den = [], []
    sign = 1
    for p in num_parts:
        sign *= _split_rational_signed(p, num, den)
    for p in den_parts:
        sign *= _split_rational_signed(p, den, num)
    if den:
        kept_den = []
        for f in den:
            if _const_val(f) is None:
                for i, g in enumerate(num):
                    if g is f:
                        del num[i]
                        break
                else:
                    kept_den.append(f)
            else:
                kept_den.append(f)
        den = kept_den
    num_expr = _simplify_product(num) if num else ONE
    den_expr = _simplify_product(den) if den else ONE
    if sign < 0:
        num_expr = _negate_simple(num_expr)
    vn, vd = _const_val(num_expr), _const_val(den_expr)
    if vd is not None:
        if vd == 1:
            return num_expr
        if vn is not None:
            folded = _fold_binary("/", vn, vd)
            if folded is not None:
                return folded
    if vn is not None and vn == 0:
        return ZERO
    if num_expr is den_expr:
        return ONE
    return Bin("/", num_expr, den_expr)


def _negate_simple(e):
    v = _const_val(e)
    if v is not None:
        return Const(-v)
    if isinstance(e, Call) and e.fn == "neg":
        return e.arg
    return Call("neg", e)


def _simplify_product(parts):
    factors = []
    for p in parts:
        _flatten("*", p, factors)
    const = Fraction(1)
    fconst = 1.0
    has_f = False
    out = []
    for f in factors:
        v = _const_val(f)
        if v is None:
            out.append(f)
        elif isinstance(v, Fraction):
            const *= v
        else:
            fconst *= v
            has_f = True
    if (not has_f and const == 0) or (has_f and fconst * float(const) == 0.0):
        return ZERO
    # exp(a)*exp(b) -> exp(a+b)
    exps = [f for f in out if isinstance(f, Call) and f.fn == "exp"]
    if len(exps) > 1:
        rest = [f for f in out if not (isinstance(f, Call) and f.fn == "exp")]
        arg = _simplify_sum([f.arg for f in exps])
        merged = ONE if (isinstance(arg, Const) and arg.is_exact and arg.value == 0) \
            else Call("exp", arg)
        out = rest + ([merged] if merged is not ONE else [])
    if has_f:
        c = fconst * float(const)
        if c != 1.0:
            out.insert(0, Const(c))
    elif const != 1:
        out.insert(0, Const(const))
    if not out:
        return ONE
    return _rebuild("*", out)


# ---------------------------------------------------------------------------
# variable spaces, points, boxes

@dataclass(frozen=True)
class VarSpace:
    """Ordered independent, dependent, and parameter names for an analysis."""

    independent: tuple
    dependent: tuple
    parameters: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "independent", tuple(self.independent))
        object.__setattr__(self, "dependent", tuple(self.dependent))
        object.__setattr__(self, "parameters", tuple(self.parameters))
        names = self.all_names
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for n in names:
            if n in FUNCTION_NAMES:
                raise ValueError(f"'{n}' is a reserved function name")

    @property
    def all_names(self):
        return self.independent + self.dependent + self.parameters

    @property
    def p(self):
        return len(self.independent)

    @property
    def q(self):
        return len(self.dependent)


@dataclass(frozen=True)
class Box:
    """Axis-aligned variable ranges used by sampled checks."""

    ranges: tuple  # of (name, lo, hi)

    def __post_init__(self):
        rs = tuple((str(n), float(lo), float(hi)) for n, lo, hi in self.ranges)
        for n, lo, hi in rs:
            if not lo <= hi:
                raise ValueError(f"empty range for {n}: [{lo}, {hi}]")
        object.__setattr__(self, "ranges", rs)

    @classmethod
    def from_dict(cls, d):
        return cls(tuple((n, lo, hi) for n, (lo, hi) in d.items()))

    def names(self):
        return [n for n, _, _ in self.ranges]

    def sample(self, rng, n):
        """Uniform samples; returns name -> array of shape (n,)."""
        return {name: rng.uniform(lo, hi, size=n) for name, lo, hi in self.ranges}

    def midpoint(self):
        return {name: 0.5 * (lo + hi) for name, lo, hi in self.ranges}

    def restrict(self, names):
        keep = set(names)
        return Box(tuple(r for r in self.ranges if r[0] in keep))


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\^|\*|/|\+|-|\(|\)|\||,))"
)


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("num") is not None:
            lit = m.group("num")
            if "." in lit or "e" in lit or "E" in lit:
                out.append(("num", float(lit), m.start("num")))
            else:
                out.append(("num", Fraction(int(lit)), m.start("num")))
        elif m.group("name") is not None:
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _Parser:
    def __init__(self, text, names):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.names = frozenset(names)

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, off = self.advance()
        if kind != "op" or val != op:
            raise ParseError(f"expected '{op}'", off)

    def parse(self):
        e = self.expression(0)
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", off)
        return e

    def expression(self, rbp):
        e = self.prefix()
        while True:
            kind, val, off = self.peek()
            if kind != "op" or val not in _PREC:
                break
            lbp = _PREC[val]
            if lbp <= rbp:
                break
            self.advance()
            # right-associative power binds its right side one notch looser
            e = Bin(val, e, self.expression(lbp - 1 if val == "^" else lbp))
        return e

    def prefix(self):
        kind, val, off = self.advance()
        if kind == "num":
            return Const(val)
        if kind == "name":
            if val in FUNCTION_NAMES and val != "neg":
                self.expect_op("(")
                arg = self.expression(0)
                self.expect_op(")")
                return Call(val, arg)
            if val not in self.names:
                raise UnknownIdentifierError(val, off)
            return Var(val)
        if kind == "op":
            if val == "(":
                e = self.expression(0)
                self.expect_op(")")
                return e
            if val == "-":
                # binds looser than ^ so -x^2 means -(x^2)
                return Call("neg", self.expression(25))
            if val == "+":
                return self.expression(25)
            if val == "|":
                e = self.expression(0)
                self.expect_op("|")
                return Call("abs", e)
        raise ParseError(f"unexpected token {val!r}", off)


def parse(text: str, space) -> Expr:
    """Parse ``text`` over the declared variables of ``space``.

    ``space`` may be a :class:`VarSpace` or any iterable of names.
    """
    names = space.all_names if isinstance(space, VarSpace) else tuple(space)
    return _Parser(text, names).parse()


# ---------------------------------------------------------------------------
# probabilistic zero testing

class ZeroVerdict(enum.Enum):
    PROBABLY_ZERO = "probably_zero"
    PROVABLY_NONZERO = "provably_nonzero"


@dataclass(frozen=True)
class ZeroTest:
    verdict: ZeroVerdict
    witness: dict | None  # sample where |value| exceeded the threshold
    value: float          # value at the witness, or max |value| seen

    def __bool__(self):
        return self.verdict is ZeroVerdict.PROBABLY_ZERO


DEFAULT_ZERO_TOL = 1e-9
DEFAULT_TRIALS = 32
_RESAMPLE_FACTOR = 10


def is_zero(e: Expr, box: Box, trials: int = DEFAULT_TRIALS,
            threshold: float = DEFAULT_ZERO_TOL, *, rng) -> ZeroTest:
    """Decide whether ``e`` vanishes identically on ``box``.

    Samples uniformly; any sample with |value| > threshold is a
    counterexample (PROVABLY_NONZERO).  Samples hitting singularities are
    skipped and redrawn, up to a cap, after which DomainExhausted is raised.
    """
    e = simplify(e)
    if isinstance(e, Const):
        v = float(e.value)
        if abs(v) > threshold:
            return ZeroTest(ZeroVerdict.PROVABLY_NONZERO, {}, v)
        return ZeroTest(ZeroVerdict.PROBABLY_ZERO, None, abs(v))
    missing = e.variables() - set(box.names())
    if missing:
        raise MissingVariableError(
            f"box lacks ranges for {sorted(missing)} needed by {e}")
    rng = np.random.default_rng(rng)
    good = 0
    max_seen = 0.0
    budget = _RESAMPLE_FACTOR * trials
    drawn = 0
    while good < trials:
        want = trials - good
        if drawn + want > budget:
            raise DomainExhausted(
                f"more than {budget} samples hit singular points of {e}")
        drawn += want
        env = box.sample(rng, want)
        vals = np.asarray(e.evaluate(env, strict=False), dtype=float)
        vals = np.broadcast_to(vals, (want,)) if vals.shape == () else vals
        ok = np.isfinite(vals)
        if np.any(np.abs(vals[ok]) > threshold):
            idx = int(np.argmax(np.where(ok, np.abs(vals), -1.0)))
            witness = {k: float(v[idx]) for k, v in env.items()}
            return ZeroTest(ZeroVerdict.PROVABLY_NONZERO, witness,
                            float(vals[idx]))
        if np.any(ok):
            max_seen = max(max_seen, float(np.max(np.abs(vals[ok]))))
        good += int(ok.sum())
    return ZeroTest(ZeroVerdict.PROBABLY_ZERO, None, max_seen)


# ---------------------------------------------------------------------------
# antiderivatives for recognized univariate forms

def antiderivative(e: Expr, name: str):
    """Antiderivative of ``e`` with respect to ``name`` for recognized shapes:
    sums of terms c(v-free) * atom, where atom is v^n, 1/v, exp(a v),
    sin(a v), cos(a v) or v-free, and logarithmic derivatives
    c * N / D with N = k dD/dv for a v-free k, integrated to c k ln(D)
    where ``_positive`` proves D > 0.  Returns None when not recognized.
    """
    e = simplify(e)
    terms = []
    _flatten("+", e, terms)
    parts = []
    for t in terms:
        at = _antiderivative_term(t, name)
        if at is None:
            return None
        parts.append(at)
    return simplify(_rebuild("+", parts))


def _antiderivative_term(t, name):
    if name not in t.variables():
        return Bin("*", t, Var(name))
    if isinstance(t, Call) and t.fn == "neg":
        inner = _antiderivative_term(t.arg, name)
        return None if inner is None else Call("neg", inner)
    if isinstance(t, Bin) and t.op == "-":
        la = _antiderivative_term(t.left, name)
        ra = _antiderivative_term(t.right, name)
        if la is None or ra is None:
            return None
        return Bin("-", la, ra)
    num_factors, den_factors = [], []
    _split_rational(t, num_factors, den_factors)
    free_num = [f for f in num_factors if name not in f.variables()]
    dep_num = [f for f in num_factors if name in f.variables()]
    free_den = [f for f in den_factors if name not in f.variables()]
    dep_den = [f for f in den_factors if name in f.variables()]
    coeff = _rebuild("*", free_num) if free_num else ONE
    if free_den:
        coeff = Bin("/", coeff, _rebuild("*", free_den))
    if len(dep_num) == 1 and len(dep_den) == 1:
        return _log_derivative_antiderivative(coeff, dep_num[0], dep_den[0],
                                              name)
    if len(dep_num) + len(dep_den) != 1:
        return None
    if dep_den:
        # 1/v^n is the power v^(-n)
        atom, n = dep_den[0], ONE
        if isinstance(atom, Bin) and atom.op == "^" \
                and isinstance(atom.right, Const):
            atom, n = atom.left, atom.right
        atom_anti = _atom_antiderivative(Bin("^", atom, Const(-n.value)), name)
    else:
        atom_anti = _atom_antiderivative(dep_num[0], name)
    if atom_anti is None:
        return None
    return simplify(Bin("*", coeff, atom_anti))


def _log_derivative_antiderivative(coeff, num, den, name):
    """coeff k ln(den) when num = k d(den)/dv with k free of v and den
    provably positive, else None: the logarithmic part of a rational
    integrand.  ln|den| across a zero of den is no antiderivative, and
    sampling cannot prove a sign, so the sign is read off the syntax."""
    if _positive(den) != _POSITIVE:
        return None
    k = simplify(Bin("/", num, den.diff(name)))
    if name in k.variables():
        return None
    return simplify(Bin("*", Bin("*", coeff, k), Call("ln", den)))


_NONNEGATIVE, _POSITIVE = 1, 2


def _positive(e):
    """_POSITIVE or _NONNEGATIVE where the syntax of ``e`` proves that
    sign on every point of its domain, else 0: a positive constant and
    exp are positive, even integer powers and abs nonnegative, a power of
    a positive base positive; a sum is positive when one term is and the
    other nonnegative, a product or quotient has the weaker sign of its
    factors, and a quotient needs a positive divisor."""
    if isinstance(e, Const):
        return _POSITIVE if e.value > 0 else _NONNEGATIVE if e.value == 0 \
            else 0
    if isinstance(e, Call):
        return {"exp": _POSITIVE, "abs": _NONNEGATIVE}.get(e.fn, 0)
    if not isinstance(e, Bin):
        return 0
    a = _positive(e.left)
    if e.op == "^":
        b = e.right
        if isinstance(b, Const) and b.is_exact and b.value.denominator == 1 \
                and b.value.numerator % 2 == 0:
            return max(a, _NONNEGATIVE)
        return _POSITIVE if a == _POSITIVE else 0
    b = _positive(e.right)
    if e.op == "+":
        return max(a, b) if min(a, b) else 0
    if e.op == "*" or (e.op == "/" and b == _POSITIVE):
        return min(a, b)
    return 0


def _split_rational(t, num, den):
    if isinstance(t, Bin) and t.op == "*":
        _split_rational(t.left, num, den)
        _split_rational(t.right, num, den)
    elif isinstance(t, Bin) and t.op == "/":
        _split_rational(t.left, num, den)
        _split_rational(t.right, den, num)
    else:
        num.append(t)


def _linear_coefficient(arg, name):
    """Return a with arg == a * name (a constant/name-free), else None."""
    d = simplify(arg.diff(name))
    if name in d.variables():
        return None
    if simplify(Bin("-", arg, Bin("*", d, Var(name)))) is not ZERO:
        return None
    return d


def _atom_antiderivative(atom, name):
    v = Var(name)
    if atom is v:
        return Bin("/", Bin("^", v, Const(2)), Const(2))
    if isinstance(atom, Bin) and atom.op == "^" and atom.left is v \
            and isinstance(atom.right, Const) and atom.right.is_exact:
        n = atom.right.value
        if n == -1:
            return Call("ln", Call("abs", v))
        return Bin("/", Bin("^", v, Const(n + 1)), Const(n + 1))
    if isinstance(atom, Call) and atom.fn in ("exp", "sin", "cos"):
        a = _linear_coefficient(atom.arg, name)
        if a is None or (isinstance(a, Const) and a.value == 0):
            return None
        if atom.fn == "exp":
            return Bin("/", atom, a)
        if atom.fn == "sin":
            return Call("neg", Bin("/", Call("cos", atom.arg), a))
        return Bin("/", Call("sin", atom.arg), a)
    return None

