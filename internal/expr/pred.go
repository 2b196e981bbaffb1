package expr

import (
	"datacell/internal/algebra"
	"datacell/internal/bat"
)

// EvalPred evaluates a boolean expression as a selection, returning the
// candidate list of qualifying rows within sel. It recognizes the shapes
// the MonetDB kernel handles natively and routes them to the bulk select
// kernels:
//
//   - col <op> const and const <op> col  → algebra.Select
//   - AND → candidate-list intersection (the right side sees only the
//     left's survivors, the classic selection pipeline)
//   - OR  → candidate-list union
//   - NOT → complement
//
// Anything else falls back to evaluating the boolean vector and collecting
// true positions.
func EvalPred(e Expr, c *bat.Chunk, sel algebra.Sel) algebra.Sel {
	switch n := e.(type) {
	case *Cmp:
		if col, op, v, ok := colConst(n); ok {
			return algebra.Select(c.Cols[col], sel, op, v)
		}
	case *Logic:
		switch n.Op {
		case And:
			// Pipeline: the right predicate only inspects the left's
			// survivors.
			lsel := EvalPred(n.L, c, sel)
			return EvalPred(n.R, c, lsel)
		case Or:
			return algebra.SelUnion(EvalPred(n.L, c, sel), EvalPred(n.R, c, sel), c.Rows())
		case Not:
			inner := EvalPred(n.L, c, sel)
			within := algebra.SelComplement(inner, c.Rows())
			return algebra.SelIntersect(materialize(sel, c.Rows()), within)
		}
	case *Const:
		if n.V.Kind == bat.Bool {
			if n.V.B {
				return sel
			}
			return algebra.Sel{}
		}
	}
	// Fallback: evaluate the boolean vector aligned with sel, collect its
	// true positions through the bulk select kernel, and map them back
	// through sel.
	out := algebra.Select(e.Eval(c, sel), nil, algebra.EQ, bat.BoolValue(true))
	if sel != nil {
		for j, k := range out {
			out[j] = sel[k]
		}
	}
	return out
}

// Restrict is EvalPred for a view's selection. When sel is nil and every
// row qualifies it returns nil (every row) instead of the full list, and
// its comparisons and conjunctions build their candidate lists in s when
// s is non-nil (algebra.SelectView): the result is then valid only until
// s.Release. Other shapes evaluate through EvalPred.
func Restrict(e Expr, c *bat.Chunk, sel algebra.Sel, s *algebra.Scratch) algebra.Sel {
	switch n := e.(type) {
	case *Cmp:
		if col, op, v, ok := colConst(n); ok {
			return algebra.SelectView(c.Cols[col], sel, op, v, s)
		}
	case *Logic:
		if n.Op == And {
			return Restrict(n.R, c, Restrict(n.L, c, sel, s), s)
		}
	}
	out := EvalPred(e, c, sel)
	if sel == nil && len(out) == c.Rows() {
		return nil
	}
	return out
}

// colConst matches col <op> const and const <op> col, returning the
// column's index and the comparison with the column on the left.
func colConst(n *Cmp) (col int, op algebra.CmpOp, v bat.Value, ok bool) {
	if c, isCol := n.L.(*Col); isCol {
		if k, isConst := n.R.(*Const); isConst {
			return c.Idx, n.Op, k.V, true
		}
	}
	if k, isConst := n.L.(*Const); isConst {
		if c, isCol := n.R.(*Col); isCol {
			return c.Idx, flipOp(n.Op), k.V, true
		}
	}
	return 0, 0, bat.Value{}, false
}

func materialize(sel algebra.Sel, n int) algebra.Sel {
	if sel == nil {
		return algebra.AllSel(n)
	}
	return sel
}

// flipOp mirrors a comparison when swapping its operands
// (const < col ⇔ col > const).
func flipOp(op algebra.CmpOp) algebra.CmpOp {
	switch op {
	case algebra.LT:
		return algebra.GT
	case algebra.LE:
		return algebra.GE
	case algebra.GT:
		return algebra.LT
	case algebra.GE:
		return algebra.LE
	}
	return op // EQ, NE are symmetric
}

// SplitConjuncts flattens nested ANDs into a list of conjuncts, used by
// the optimizer for predicate pushdown.
func SplitConjuncts(e Expr) []Expr {
	if l, ok := e.(*Logic); ok && l.Op == And {
		return append(SplitConjuncts(l.L), SplitConjuncts(l.R)...)
	}
	return []Expr{e}
}

// JoinConjuncts rebuilds a conjunction from a list (nil for empty).
func JoinConjuncts(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &Logic{Op: And, L: out, R: e}
	}
	return out
}

// Cols reports the set of column indexes referenced by an expression, used
// by the optimizer for projection pruning and pushdown legality.
func Cols(e Expr, into map[int]bool) {
	switch n := e.(type) {
	case *Col:
		into[n.Idx] = true
	case *Const:
	case *Arith:
		Cols(n.L, into)
		Cols(n.R, into)
	case *Cmp:
		Cols(n.L, into)
		Cols(n.R, into)
	case *Logic:
		Cols(n.L, into)
		if n.R != nil {
			Cols(n.R, into)
		}
	case *Cast:
		Cols(n.E, into)
	case *Func:
		for _, a := range n.Args {
			Cols(a, into)
		}
	}
}

// Remap rewrites every column reference through the given index mapping,
// returning a new expression tree. It is used when an expression moves
// across an operator that reorders or prunes columns. Missing mappings
// panic: the optimizer only remaps expressions it proved remappable.
func Remap(e Expr, m map[int]int) Expr {
	switch n := e.(type) {
	case *Col:
		idx, ok := m[n.Idx]
		if !ok {
			panic("expr: Remap of unmapped column")
		}
		return &Col{Idx: idx, K: n.K, Name: n.Name}
	case *Const:
		return n
	case *Arith:
		return &Arith{Op: n.Op, L: Remap(n.L, m), R: Remap(n.R, m)}
	case *Cmp:
		return &Cmp{Op: n.Op, L: Remap(n.L, m), R: Remap(n.R, m)}
	case *Logic:
		out := &Logic{Op: n.Op, L: Remap(n.L, m)}
		if n.R != nil {
			out.R = Remap(n.R, m)
		}
		return out
	case *Cast:
		return &Cast{To: n.To, E: Remap(n.E, m)}
	case *Func:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Remap(a, m)
		}
		return &Func{Name: n.Name, Args: args, K: n.K}
	}
	panic("expr: Remap of unknown node")
}
