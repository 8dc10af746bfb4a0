package core

import (
	"fmt"
	"slices"
	"strings"

	"dixq/internal/index"
	"dixq/internal/plan"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// HoistInvariants is loop-invariant code motion: it evaluates every
// maximal subexpression once, at the loop level of its deepest free
// variable, instead of once per iteration of the loops it sits in.
//
// Each binder has a loop level. Documents are level 0, a for variable
// (and its positional variable) is one deeper than the level its for
// occurs at, and a let variable is the level of its let. An expression
// whose deepest free variable is at level t but which occurs deeper is
// replaced by a fresh variable, bound by a let that wraps the innermost
// for occurring at level t around it; the value then reaches the inner
// loops by the ordinary environment embedding, as one value per outer
// environment instead of the outer variables it was computed from.
// Expressions that depend on documents alone are bound once around the
// whole query. Text-equal expressions with the same home share one
// binding.
//
// Nothing moves out of a where's body to a level above the where, because
// there it runs only for the environments that pass the condition (document
// paths excepted: they are bound once for the whole query anyway). The
// rewrite is semantics-preserving: the hoisted expressions are pure and
// total.
//
// At level 0 this is the plan behaviour the paper's Figure 10 implies:
// even the DI-NLJ plan pays the path-extraction cost only once (a small,
// roughly constant fraction), while the join dominates.
func HoistInvariants(e xq.Expr) xq.Expr {
	h := &hoister{levels: map[string]int{}}
	return h.top.wrap(h.children(e, 0))
}

type hoister struct {
	levels map[string]int // visible variable -> loop level of its binder
	// frames[t] collects the bindings for the for occurring at level t whose
	// body is being rewritten; len(frames) is the current level.
	frames []*hoistFrame
	top    hoistFrame // document-only bindings, around the whole query
	// inTop is set while rewriting the value of a top binding: documents
	// then count as level-0 variables, so loops inside that value get their
	// own invariants bound around them.
	inTop bool
	n     int
}

// hoistFrame is the set of let bindings wrapped around one expression.
type hoistFrame struct {
	names map[string]string // expression text -> generated variable
	binds []xq.Let          // Var and Value only, outermost first
}

func (f *hoistFrame) wrap(body xq.Expr) xq.Expr {
	for i := len(f.binds) - 1; i >= 0; i-- {
		body = xq.Let{Var: f.binds[i].Var, Value: f.binds[i].Value, Body: body}
	}
	return body
}

// target returns the level of e's deepest free variable, whether e depends
// on documents alone, and false if some free variable is unbound.
func (h *hoister) target(e xq.Expr) (t int, docOnly, ok bool) {
	docOnly = true
	for name := range xq.FreeVars(e) {
		if strings.HasPrefix(name, "doc:") {
			continue
		}
		lvl, bound := h.levels[name]
		if !bound {
			return 0, false, false
		}
		docOnly = false
		t = max(t, lvl)
	}
	return t, docOnly, true
}

// worthHoisting excludes the trivial cases where a binding buys nothing.
func worthHoisting(e xq.Expr) bool {
	switch e.(type) {
	case xq.Var, xq.Const:
		return false
	default:
		return true
	}
}

// expr replaces e by a variable when it is invariant in the loop it occurs
// in, and otherwise rewrites its subexpressions. floor is the level of the
// innermost enclosing where body; no binding moves above it.
func (h *hoister) expr(e xq.Expr, floor int) xq.Expr {
	// Inside a top binding only the level rule applies, and it needs a loop
	// level at or above floor to bind at: skip the free-variable scan where
	// it cannot fire.
	if worthHoisting(e) && (!h.inTop || floor < len(h.frames)) {
		if t, docOnly, ok := h.target(e); ok {
			if docOnly && !h.inTop {
				return xq.Var{Name: h.bindTop(e)}
			}
			if t < len(h.frames) && t >= floor {
				return xq.Var{Name: h.bindAt(t, e, floor)}
			}
		}
	}
	return h.children(e, floor)
}

// children rewrites e's subexpressions; e itself stays where it is.
func (h *hoister) children(e xq.Expr, floor int) xq.Expr {
	switch e := e.(type) {
	case xq.Var, xq.Doc, xq.Const:
		return e
	case xq.Call:
		args := make([]xq.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = h.expr(a, floor)
		}
		return xq.Call{Fn: e.Fn, Label: e.Label, Args: args}
	case xq.Let:
		value := h.expr(e.Value, floor)
		saved := h.setLevel(e.Var, len(h.frames))
		body := h.expr(e.Body, floor)
		h.restoreLevel(saved)
		return xq.Let{Var: e.Var, Value: value, Body: body}
	case xq.For:
		domain := h.expr(e.Domain, floor)
		level := len(h.frames)
		f := &hoistFrame{}
		h.frames = append(h.frames, f)
		savedVar := h.setLevel(e.Var, level+1)
		savedPos := h.setLevel(e.Pos, level+1)
		body := h.expr(e.Body, floor)
		h.restoreLevel(savedPos)
		h.restoreLevel(savedVar)
		h.frames = h.frames[:level]
		return f.wrap(xq.For{Var: e.Var, Pos: e.Pos, Domain: domain, Body: body})
	case xq.Where:
		return xq.Where{Cond: h.cond(e.Cond, floor), Body: h.expr(e.Body, len(h.frames))}
	default:
		panic(fmt.Sprintf("core: unknown expression %T", e))
	}
}

// savedLevel is a variable's level before a binder shadowed it.
type savedLevel struct {
	name string
	lvl  int
	had  bool
}

// setLevel binds name at level, returning what to restore; an empty name
// (a for without a positional variable) binds nothing.
func (h *hoister) setLevel(name string, level int) savedLevel {
	if name == "" {
		return savedLevel{}
	}
	lvl, had := h.levels[name]
	h.levels[name] = level
	return savedLevel{name, lvl, had}
}

func (h *hoister) restoreLevel(s savedLevel) {
	switch {
	case s.name == "":
	case s.had:
		h.levels[s.name] = s.lvl
	default:
		delete(h.levels, s.name)
	}
}

func (h *hoister) cond(c xq.Cond, floor int) xq.Cond {
	switch c := c.(type) {
	case xq.Equal:
		return xq.Equal{L: h.expr(c.L, floor), R: h.expr(c.R, floor)}
	case xq.Less:
		return xq.Less{L: h.expr(c.L, floor), R: h.expr(c.R, floor)}
	case xq.CmpVal:
		return xq.CmpVal{L: h.expr(c.L, floor), R: h.expr(c.R, floor)}
	case xq.Empty:
		return xq.Empty{E: h.expr(c.E, floor)}
	case xq.Contains:
		return xq.Contains{L: h.expr(c.L, floor), R: h.expr(c.R, floor)}
	case xq.Not:
		return xq.Not{C: h.cond(c.C, floor)}
	case xq.And:
		return xq.And{L: h.cond(c.L, floor), R: h.cond(c.R, floor)}
	case xq.Or:
		return xq.Or{L: h.cond(c.L, floor), R: h.cond(c.R, floor)}
	default:
		panic(fmt.Sprintf("core: unknown condition %T", c))
	}
}

// bindTop binds a document-only expression around the whole query. Its
// value is rewritten at level 0, so loops inside it hoist their own
// invariants.
func (h *hoister) bindTop(e xq.Expr) string {
	frames := h.frames
	h.frames, h.inTop = nil, true
	defer func() { h.frames, h.inTop = frames, false }()
	return h.bind(&h.top, e, 0, hasLoop(e))
}

// hasLoop reports whether e contains a for. Without one, rewriting the
// value of a top binding cannot bind anything, so bindTop keeps it as is.
func hasLoop(e xq.Expr) bool {
	switch e := e.(type) {
	case xq.For:
		return true
	case xq.Call:
		return slices.ContainsFunc(e.Args, hasLoop)
	case xq.Let:
		return hasLoop(e.Value) || hasLoop(e.Body)
	case xq.Where:
		return condHasLoop(e.Cond) || hasLoop(e.Body)
	default:
		return false
	}
}

func condHasLoop(c xq.Cond) bool {
	switch c := c.(type) {
	case xq.Equal:
		return hasLoop(c.L) || hasLoop(c.R)
	case xq.Less:
		return hasLoop(c.L) || hasLoop(c.R)
	case xq.CmpVal:
		return hasLoop(c.L) || hasLoop(c.R)
	case xq.Contains:
		return hasLoop(c.L) || hasLoop(c.R)
	case xq.Empty:
		return hasLoop(c.E)
	case xq.Not:
		return condHasLoop(c.C)
	case xq.And:
		return condHasLoop(c.L) || condHasLoop(c.R)
	case xq.Or:
		return condHasLoop(c.L) || condHasLoop(c.R)
	default:
		return false
	}
}

// bindAt binds e around the for occurring at level t that encloses it. Its
// value is rewritten at its new home, so it may hoist further out.
func (h *hoister) bindAt(t int, e xq.Expr, floor int) string {
	frames := h.frames
	h.frames = frames[:t:t]
	defer func() { h.frames = frames }()
	return h.bind(frames[t], e, floor, true)
}

// bind returns the variable bound to e in frame f, adding the binding if e
// is new there; rewrite says whether e's subexpressions may move further.
func (h *hoister) bind(f *hoistFrame, e xq.Expr, floor int, rewrite bool) string {
	key := e.String()
	if name, ok := f.names[key]; ok {
		return name
	}
	value := e
	if rewrite {
		value = h.children(e, floor)
	}
	h.n++
	name := fmt.Sprintf("#hoist%d", h.n)
	if f.names == nil {
		f.names = map[string]string{}
	}
	f.names[key] = name
	f.binds = append(f.binds, xq.Let{Var: name, Value: value})
	return name
}

// PullUpJoinPredicates rewrites every for-loop body of the shape
//
//	let v1 := e1 ... let vn := en where C1 and ... and Ck return b
//
// by moving the conjuncts that do not reference any of the let variables in
// front of the lets:
//
//	where C_movable return let v1 := ... where C_rest return b
//
// The rewrite is semantics-preserving (the let values are pure and total)
// and exposes the "for x … for y … where p(x) = q(y)" shape the merge-join
// evaluation of Section 5 recognizes — including Q9's middle loop, whose
// join predicate sits under the let binding of the innermost loop.
func PullUpJoinPredicates(e xq.Expr) xq.Expr {
	switch e := e.(type) {
	case xq.Var, xq.Doc, xq.Const:
		return e
	case xq.Call:
		args := make([]xq.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = PullUpJoinPredicates(a)
		}
		return xq.Call{Fn: e.Fn, Label: e.Label, Args: args}
	case xq.Let:
		return xq.Let{Var: e.Var, Value: PullUpJoinPredicates(e.Value), Body: PullUpJoinPredicates(e.Body)}
	case xq.For:
		return xq.For{Var: e.Var, Pos: e.Pos, Domain: PullUpJoinPredicates(e.Domain), Body: pullUpBody(PullUpJoinPredicates(e.Body))}
	case xq.Where:
		body := PullUpJoinPredicates(e.Body)
		cond := pullUpCond(e.Cond)
		// Adjacent conditionals merge into one conjunction, exposing all
		// conjuncts to the merge-join pattern at once.
		if inner, ok := body.(xq.Where); ok {
			return xq.Where{Cond: xq.And{L: cond, R: inner.Cond}, Body: inner.Body}
		}
		return xq.Where{Cond: cond, Body: body}
	default:
		panic(fmt.Sprintf("core: unknown expression %T", e))
	}
}

func pullUpCond(c xq.Cond) xq.Cond {
	switch c := c.(type) {
	case xq.Equal:
		return xq.Equal{L: PullUpJoinPredicates(c.L), R: PullUpJoinPredicates(c.R)}
	case xq.Less:
		return xq.Less{L: PullUpJoinPredicates(c.L), R: PullUpJoinPredicates(c.R)}
	case xq.CmpVal:
		return xq.CmpVal{L: PullUpJoinPredicates(c.L), R: PullUpJoinPredicates(c.R)}
	case xq.Empty:
		return xq.Empty{E: PullUpJoinPredicates(c.E)}
	case xq.Contains:
		return xq.Contains{L: PullUpJoinPredicates(c.L), R: PullUpJoinPredicates(c.R)}
	case xq.Not:
		return xq.Not{C: pullUpCond(c.C)}
	case xq.And:
		return xq.And{L: pullUpCond(c.L), R: pullUpCond(c.R)}
	case xq.Or:
		return xq.Or{L: pullUpCond(c.L), R: pullUpCond(c.R)}
	default:
		panic(fmt.Sprintf("core: unknown condition %T", c))
	}
}

// pullUpBody hoists let-independent conjuncts of a let-chain's final where
// clause in front of the chain.
func pullUpBody(body xq.Expr) xq.Expr {
	var lets []xq.Let
	cur := body
	for {
		l, ok := cur.(xq.Let)
		if !ok {
			break
		}
		lets = append(lets, l)
		cur = l.Body
	}
	w, ok := cur.(xq.Where)
	if !ok || len(lets) == 0 {
		return body
	}
	letVars := map[string]bool{}
	for _, l := range lets {
		letVars[l.Var] = true
	}
	movable, rest := splitConjuncts(w.Cond, letVars)
	if movable == nil {
		return body
	}
	inner := w.Body
	if rest != nil {
		inner = xq.Where{Cond: rest, Body: inner}
	}
	for i := len(lets) - 1; i >= 0; i-- {
		inner = xq.Let{Var: lets[i].Var, Value: lets[i].Value, Body: inner}
	}
	return xq.Where{Cond: movable, Body: inner}
}

// splitConjuncts partitions a conjunction into the parts that avoid the
// given variables and the rest; either part may be nil.
func splitConjuncts(c xq.Cond, avoid map[string]bool) (movable, rest xq.Cond) {
	conjuncts := flattenAnd(c)
	for _, conj := range conjuncts {
		if condUsesAny(conj, avoid) {
			rest = andWith(rest, conj)
		} else {
			movable = andWith(movable, conj)
		}
	}
	return movable, rest
}

func flattenAnd(c xq.Cond) []xq.Cond {
	if a, ok := c.(xq.And); ok {
		return append(flattenAnd(a.L), flattenAnd(a.R)...)
	}
	return []xq.Cond{c}
}

func andWith(acc, c xq.Cond) xq.Cond {
	if acc == nil {
		return c
	}
	return xq.And{L: acc, R: c}
}

func condUsesAny(c xq.Cond, vars map[string]bool) bool {
	used := map[string]bool{}
	collectCondVars(c, used)
	for v := range vars {
		if used[v] {
			return true
		}
	}
	return false
}

func collectCondVars(c xq.Cond, out map[string]bool) {
	switch c := c.(type) {
	case xq.Equal:
		addFree(c.L, out)
		addFree(c.R, out)
	case xq.Less:
		addFree(c.L, out)
		addFree(c.R, out)
	case xq.CmpVal:
		addFree(c.L, out)
		addFree(c.R, out)
	case xq.Empty:
		addFree(c.E, out)
	case xq.Contains:
		addFree(c.L, out)
		addFree(c.R, out)
	case xq.Not:
		collectCondVars(c.C, out)
	case xq.And:
		collectCondVars(c.L, out)
		collectCondVars(c.R, out)
	case xq.Or:
		collectCondVars(c.L, out)
		collectCondVars(c.R, out)
	}
}

func addFree(e xq.Expr, out map[string]bool) {
	for v := range xq.FreeVars(e) {
		out[v] = true
	}
}

// applyIndexes is the access-path phase of compilation: with structural
// indexes available (Options.Indexes), every path chain rooted at a depth-0
// scan of an indexed document is resolved against that document's dataguide
// (see internal/index). Two rewrites apply, both recorded on the plan:
//
//   - seek (form a): the maximal absorbable prefix of the chain — select,
//     seltext, children, roots — resolves to exact row ranges, and the
//     prefix is replaced by an OpIndexPath node that serves those ranges
//     directly. The replaced sub-chain is kept as Inputs[0], the runtime
//     fallback for environments the resolution does not describe.
//   - prune (form b): a select whose element/attribute label appears
//     nowhere in the document can only produce the empty forest, even
//     through non-absorbable steps (subtrees-dfs, head, tail), because all
//     of those only subset or preserve the document's labels. The whole
//     chain collapses to a pruned OpIndexPath.
//
// Every remaining OpScan of an indexed document is marked AccessScan, so
// Explain always shows an explicit index-vs-scan decision per source.
// DESIGN.md §4.11 gives the soundness argument for both forms.
func applyIndexes(root *plan.Node, set *index.Set) *plan.Node {
	return rewriteAccess(root, set)
}

func rewriteAccess(n *plan.Node, set *index.Set) *plan.Node {
	if n.Op == plan.OpRoots || n.Op == plan.OpPathStep {
		return rewriteChain(n, set)
	}
	for i, c := range n.Inputs {
		n.Inputs[i] = rewriteAccess(c, set)
	}
	if n.Op == plan.OpScan && n.Access == "" {
		n.Access = plan.AccessScan
	}
	return n
}

// rewriteChain applies the two index rewrites to a maximal path chain.
func rewriteChain(head *plan.Node, set *index.Set) *plan.Node {
	var chain []*plan.Node
	cur := head
	for {
		chain = append(chain, cur)
		next := cur.Inputs[0]
		if next.Op != plan.OpRoots && next.Op != plan.OpPathStep {
			break
		}
		cur = next
	}
	bottom := chain[len(chain)-1]
	bottom.Inputs[0] = rewriteAccess(bottom.Inputs[0], set)
	src := bottom.Inputs[0]
	// A document scan is loop-invariant at any depth (documents never
	// depend on loop variables), so chains rooted at scans inside loops
	// (Depth >= 1) resolve too: the executor serves the ranges once and
	// embeds them into the current environments, exactly as the
	// scan-backed chain would embed its source document.
	if src.Op == plan.OpScan {
		if ix := set.Docs[src.Label]; ix != nil {
			if n := absorbChain(head, chain, src, ix); n != nil {
				return n
			}
		}
	}
	if n := pruneAbsent(head, chain, set); n != nil {
		return n
	}
	return head
}

// absorbStep maps a chain node to its dataguide step, reporting false for
// the steps the resolver cannot absorb (data, head, tail).
func absorbStep(n *plan.Node) (index.Step, bool) {
	switch {
	case n.Op == plan.OpRoots:
		return index.Step{Kind: index.StepRoots}, true
	case n.Op == plan.OpPathStep && n.Step == plan.StepSelect:
		return index.Step{Kind: index.StepSelect, Label: n.Label}, true
	case n.Op == plan.OpPathStep && n.Step == plan.StepSelText:
		return index.Step{Kind: index.StepSelText}, true
	case n.Op == plan.OpPathStep && n.Step == plan.StepChildren:
		return index.Step{Kind: index.StepChildren}, true
	}
	return index.Step{}, false
}

// absorbChain is form (a): resolve the maximal absorbable prefix of the
// chain (in execution order, from the scan upward) against the dataguide.
func absorbChain(head *plan.Node, chain []*plan.Node, src *plan.Node, ix *index.DocIndex) *plan.Node {
	var steps []index.Step
	for i := len(chain) - 1; i >= 0; i-- {
		st, ok := absorbStep(chain[i])
		if !ok {
			break
		}
		steps = append(steps, st)
	}
	if len(steps) == 0 {
		return nil
	}
	res := ix.Resolve(steps)
	steps = steps[:res.Consumed]
	if res.Pruned {
		// The resolved prefix is empty, and every remaining chain step
		// preserves emptiness, so the whole chain is.
		return prunedNode(head, src.Label, ix, 0, renderPath(steps))
	}
	absorbed := res.Consumed
	if absorbed == 0 {
		return nil
	}
	ipn := &plan.Node{
		Op:     plan.OpIndexPath,
		Access: plan.AccessIndex,
		Depth:  src.Depth,
		Digits: src.Digits,
		Card:   res.Rows,
		Seek: &plan.Seek{Doc: src.Label, Path: renderPath(steps), Rel: ix.Rel,
			Ranges: res.Ranges, Rows: res.Rows},
		Inputs: []*plan.Node{chain[len(chain)-absorbed]},
	}
	if absorbed == len(chain) {
		return ipn
	}
	chain[len(chain)-absorbed-1].Inputs[0] = ipn
	return head
}

// pruneAbsent is form (b): walk below the chain through label-preserving
// operators to a depth-0 document, then prune the chain if any of its
// selects names an element/attribute label absent from that document.
// WidenBy accumulates the subtrees-dfs widenings on the walk so the pruned
// node reports the local key width the chain's (empty) output would have.
func pruneAbsent(head *plan.Node, chain []*plan.Node, set *index.Set) *plan.Node {
	widen := 0
	cur := chain[len(chain)-1].Inputs[0]
	var ix *index.DocIndex
	var doc string
walk:
	for {
		switch {
		case cur.Op == plan.OpScan:
			ix = set.Docs[cur.Label]
			doc = cur.Label
			break walk
		case cur.Op == plan.OpIndexPath && cur.Seek != nil:
			sk := cur.Seek
			if sk.Pruned {
				// The source is already proven empty; so is this chain.
				return prunedNode(head, sk.Doc, set.Docs[sk.Doc], widen+sk.WidenBy, sk.Path)
			}
			ix = set.Docs[sk.Doc]
			doc = sk.Doc
			widen += sk.WidenBy
			break walk
		case cur.Op == plan.OpSubtreesDFS:
			widen++
			cur = cur.Inputs[0]
		case cur.Op == plan.OpRoots:
			cur = cur.Inputs[0]
		case cur.Op == plan.OpPathStep && cur.Step != plan.StepData:
			// data() manufactures new text labels, so labels above it are
			// not the document's; every other step only subsets them.
			cur = cur.Inputs[0]
		default:
			return nil
		}
	}
	if ix == nil {
		return nil
	}
	dataSeen := false
	for i := len(chain) - 1; i >= 0; i-- {
		n := chain[i]
		if n.Op == plan.OpPathStep && n.Step == plan.StepData {
			dataSeen = true
		}
		if dataSeen {
			continue
		}
		if n.Op == plan.OpPathStep && n.Step == plan.StepSelect &&
			xmltree.LabelKind(n.Label) != xmltree.Text && !ix.HasLabel(n.Label) {
			return prunedNode(head, doc, ix, widen, "//"+trimLabel(n.Label))
		}
	}
	return nil
}

func prunedNode(head *plan.Node, doc string, ix *index.DocIndex, widen int, path string) *plan.Node {
	return &plan.Node{
		Op:     plan.OpIndexPath,
		Access: plan.AccessPruned,
		Depth:  head.Depth,
		Digits: head.Digits,
		Card:   0,
		Seek: &plan.Seek{Doc: doc, Path: path, Rel: ix.Rel,
			Pruned: true, WidenBy: widen},
		Inputs: []*plan.Node{head},
	}
}

// renderPath renders an absorbed step chain for Explain.
func renderPath(steps []index.Step) string {
	var b strings.Builder
	pendingChild := false
	flush := func() {
		if pendingChild {
			b.WriteString("/*")
			pendingChild = false
		}
	}
	for _, st := range steps {
		switch st.Kind {
		case index.StepChildren:
			flush()
			pendingChild = true
		case index.StepSelect:
			pendingChild = false
			b.WriteString("/")
			b.WriteString(trimLabel(st.Label))
		case index.StepSelText:
			pendingChild = false
			b.WriteString("/text()")
		case index.StepRoots:
			flush()
			b.WriteString("!roots")
		}
	}
	flush()
	return b.String()
}

func trimLabel(label string) string {
	switch xmltree.LabelKind(label) {
	case xmltree.Element:
		return label[1 : len(label)-1]
	default:
		return label
	}
}
