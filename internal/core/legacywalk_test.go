//go:build legacywalk

package core

// This file preserves the pre-plan-IR executor — the direct AST walk that
// evaluated xq expressions before compilation to plan.Node trees — purely
// as a differential oracle. It is compiled only under the legacywalk build
// tag:
//
//	go test -tags legacywalk -run=NONE -fuzz=FuzzCompileExecute ./internal/core/
//
// The fuzz target asserts that compile-then-execute produces digit-for-
// digit identical result relations to the legacy walk on random queries,
// in both join modes, fused and unfused. The walk itself materializes every
// path step through package engine.

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"dixq/internal/engine"
	"dixq/internal/interval"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

func (ev *evaluator) legacyEval(e xq.Expr, en *env) (*table, error) {
	switch e := e.(type) {
	case xq.Var:
		return ev.evalVar(e.Name, en)
	case xq.Doc:
		return ev.evalVar("doc:"+e.Name, en)
	case xq.Const:
		defer track(ev.phaseDur(&ev.stats.Construction))()
		rel := interval.Encode(e.Value)
		out, err := engine.EmbedOuter(en.index, 0, en.depth, rel, ev.budget)
		if err != nil {
			return nil, err
		}
		return &table{rel: out, local: 1}, nil
	case xq.Call:
		return ev.legacyEvalCall(e, en)
	case xq.Let:
		val, err := ev.legacyEval(e.Value, en)
		if err != nil {
			return nil, err
		}
		child := en.child(en.depth, en.index)
		child.vars[e.Var] = binding{tab: val, depth: en.depth}
		return ev.legacyEval(e.Body, child)
	case xq.Where:
		return ev.legacyEvalWhere(e, en)
	case xq.For:
		return ev.legacyEvalFor(e, en)
	default:
		return nil, fmt.Errorf("core: unknown expression %T", e)
	}
}

func (ev *evaluator) legacyEvalCall(e xq.Call, en *env) (*table, error) {
	args := make([]*table, len(e.Args))
	for i, a := range e.Args {
		t, err := ev.legacyEval(a, en)
		if err != nil {
			return nil, err
		}
		args[i] = t
	}
	return ev.legacyApplyOp(e, args, en)
}

func (ev *evaluator) legacyApplyOp(e xq.Call, args []*table, en *env) (*table, error) {
	switch e.Fn {
	case xq.FnNode:
		rel := engine.Construct(en.index, en.depth, e.Label, args[0].rel)
		return &table{rel: rel, local: max(1, args[0].local)}, nil
	case xq.FnConcat:
		rel := engine.Concat(en.index, en.depth, args[0].rel, args[1].rel)
		return &table{rel: rel, local: max(args[0].local, args[1].local)}, nil
	case xq.FnCount:
		rel := engine.Count(en.index, en.depth, args[0].rel)
		return &table{rel: rel, local: 1}, nil
	case xq.FnHead:
		return &table{rel: engine.Head(args[0].rel, en.depth), local: args[0].local}, nil
	case xq.FnTail:
		return &table{rel: engine.Tail(args[0].rel, en.depth), local: args[0].local}, nil
	case xq.FnReverse:
		return &table{rel: engine.Reverse(args[0].rel, en.depth), local: args[0].local + 1}, nil
	case xq.FnSort:
		return &table{rel: engine.SortTreesP(args[0].rel, en.depth, ev.opts.Parallelism), local: args[0].local + 1}, nil
	case xq.FnDistinct:
		return &table{rel: engine.DistinctP(args[0].rel, en.depth, ev.opts.Parallelism), local: args[0].local}, nil
	case xq.FnSelect:
		return &table{rel: engine.SelectLabel(e.Label, args[0].rel), local: args[0].local}, nil
	case xq.FnSelText:
		return &table{rel: engine.SelectText(args[0].rel), local: args[0].local}, nil
	case xq.FnData:
		return &table{rel: engine.Data(args[0].rel), local: args[0].local}, nil
	case xq.FnRoots:
		return &table{rel: engine.Roots(args[0].rel), local: args[0].local}, nil
	case xq.FnChildren:
		return &table{rel: engine.Children(args[0].rel), local: args[0].local}, nil
	case xq.FnSubtreesDFS:
		return &table{rel: engine.SubtreesDFS(args[0].rel, en.depth), local: args[0].local + 1}, nil
	case xq.FnSum, xq.FnAvg, xq.FnMin, xq.FnMax:
		rel := engine.Aggregate(en.index, en.depth, e.Fn, args[0].rel)
		return &table{rel: rel, local: 1}, nil
	case xq.FnArith:
		rel := engine.Arith(en.index, en.depth, e.Label, args[0].rel, args[1].rel)
		return &table{rel: rel, local: 1}, nil
	case xq.FnTake:
		return &table{rel: engine.Take(args[0].rel, en.depth, legacyCallCount(e)), local: args[0].local}, nil
	case xq.FnDrop:
		return &table{rel: engine.Drop(args[0].rel, en.depth, legacyCallCount(e)), local: args[0].local}, nil
	case xq.FnOrdBy:
		return &table{rel: engine.OrdBy(args[0].rel, en.depth, e.Label), local: args[0].local + 1}, nil
	default:
		return nil, fmt.Errorf("core: unknown function %q", e.Fn)
	}
}

func (ev *evaluator) legacyEvalWhere(e xq.Where, en *env) (*table, error) {
	var keep []bool
	err := ev.condScope(func() error {
		var err error
		keep, err = ev.legacyEvalCond(e.Cond, en)
		return err
	})
	if err != nil {
		return nil, err
	}
	index := engine.FilterIndex(en.index, keep)
	child := en.child(en.depth, index)
	for name, b := range child.vars {
		if b.depth == en.depth {
			child.vars[name] = binding{
				tab:   &table{rel: engine.SemiJoin(b.tab.rel, index, en.depth), local: b.tab.local},
				depth: b.depth,
			}
		}
	}
	return ev.legacyEval(e.Body, child)
}

func (ev *evaluator) legacyEvalCond(c xq.Cond, en *env) ([]bool, error) {
	switch c := c.(type) {
	case xq.Equal, xq.Less:
		var le, re xq.Expr
		if eq, ok := c.(xq.Equal); ok {
			le, re = eq.L, eq.R
		} else {
			lt := c.(xq.Less)
			le, re = lt.L, lt.R
		}
		lt, err := ev.legacyEval(le, en)
		if err != nil {
			return nil, err
		}
		rt, err := ev.legacyEval(re, en)
		if err != nil {
			return nil, err
		}
		cmp := engine.ComparePerEnv(en.index, en.depth, lt.rel, rt.rel)
		out := make([]bool, len(cmp))
		for i, v := range cmp {
			if _, isEq := c.(xq.Equal); isEq {
				out[i] = v == 0
			} else {
				out[i] = v < 0
			}
		}
		return out, nil
	case xq.Empty:
		t, err := ev.legacyEval(c.E, en)
		if err != nil {
			return nil, err
		}
		return engine.EmptyPerEnv(en.index, en.depth, t.rel), nil
	case xq.CmpVal:
		lt, err := ev.legacyEval(c.L, en)
		if err != nil {
			return nil, err
		}
		rt, err := ev.legacyEval(c.R, en)
		if err != nil {
			return nil, err
		}
		return engine.ValueLessPerEnv(en.index, en.depth, lt.rel, rt.rel), nil
	case xq.Contains:
		lt, err := ev.legacyEval(c.L, en)
		if err != nil {
			return nil, err
		}
		rt, err := ev.legacyEval(c.R, en)
		if err != nil {
			return nil, err
		}
		return engine.ContainsPerEnv(en.index, en.depth, lt.rel, rt.rel), nil
	case xq.Not:
		v, err := ev.legacyEvalCond(c.C, en)
		if err != nil {
			return nil, err
		}
		for i := range v {
			v[i] = !v[i]
		}
		return v, nil
	case xq.And:
		l, err := ev.legacyEvalCond(c.L, en)
		if err != nil {
			return nil, err
		}
		r, err := ev.legacyEvalCond(c.R, en)
		if err != nil {
			return nil, err
		}
		for i := range l {
			l[i] = l[i] && r[i]
		}
		return l, nil
	case xq.Or:
		l, err := ev.legacyEvalCond(c.L, en)
		if err != nil {
			return nil, err
		}
		r, err := ev.legacyEvalCond(c.R, en)
		if err != nil {
			return nil, err
		}
		for i := range l {
			l[i] = l[i] || r[i]
		}
		return l, nil
	default:
		return nil, fmt.Errorf("core: unknown condition %T", c)
	}
}

func (ev *evaluator) legacyEvalFor(e xq.For, en *env) (*table, error) {
	if ev.opts.ForceJoinMode == ModeMSJ {
		if tab, ok, err := ev.legacyTryMergeJoin(e, en); err != nil {
			return nil, err
		} else if ok {
			return tab, nil
		}
	}
	dom, err := ev.legacyEval(e.Domain, en)
	if err != nil {
		return nil, err
	}
	roots := engine.Roots(dom.rel)
	index := engine.EnterIndex(roots)
	newDepth := en.depth + dom.local
	bound := engine.BindVar(dom.rel, roots, en.depth, newDepth)
	child := en.child(newDepth, index)
	child.vars[e.Var] = binding{tab: &table{rel: bound, local: dom.local}, depth: newDepth}
	if e.Pos != "" {
		pos := engine.Positions(roots, en.depth, newDepth)
		child.vars[e.Pos] = binding{tab: &table{rel: pos, local: 1}, depth: newDepth}
	}
	body, err := ev.legacyEval(e.Body, child)
	if err != nil {
		return nil, err
	}
	return &table{rel: body.rel, local: dom.local + body.local}, nil
}

func (ev *evaluator) legacyTryMergeJoin(e xq.For, en *env) (*table, bool, error) {
	w, ok := e.Body.(xq.Where)
	if !ok {
		return nil, false, nil
	}
	d0, ok := ev.legacyMaxFreeDepth(e.Domain, en)
	if !ok || d0 >= en.depth {
		return nil, false, nil
	}
	anc := ancestorAt(en, d0)
	if anc == nil {
		return nil, false, nil
	}
	conjuncts := flattenAnd(w.Cond)
	keyIdx := -1
	var outerKey, innerKey xq.Expr
	for i, c := range conjuncts {
		eq, isEq := c.(xq.Equal)
		if !isEq {
			continue
		}
		if ev.legacyIsInnerKey(eq.L, e.Var, d0, en) && ev.legacyIsOuterKey(eq.R, e.Var, en) {
			innerKey, outerKey, keyIdx = eq.L, eq.R, i
			break
		}
		if ev.legacyIsInnerKey(eq.R, e.Var, d0, en) && ev.legacyIsOuterKey(eq.L, e.Var, en) {
			innerKey, outerKey, keyIdx = eq.R, eq.L, i
			break
		}
	}
	if keyIdx < 0 {
		return nil, false, nil
	}

	domTab, err := ev.legacyEval(e.Domain, anc)
	if err != nil {
		return nil, false, err
	}
	roots := engine.Roots(domTab.rel)
	yIndex := engine.EnterIndex(roots)
	yDepth := d0 + domTab.local
	yBound := engine.BindVar(domTab.rel, roots, d0, yDepth)
	yEnv := anc.child(yDepth, yIndex)
	yEnv.vars[e.Var] = binding{tab: &table{rel: yBound, local: domTab.local}, depth: yDepth}
	var yPos *interval.Relation
	if e.Pos != "" {
		yPos = engine.Positions(roots, d0, yDepth)
		yEnv.vars[e.Pos] = binding{tab: &table{rel: yPos, local: 1}, depth: yDepth}
	}

	var innerTab, outerTab *table
	err = ev.condScope(func() error {
		var err error
		if innerTab, err = ev.legacyEval(innerKey, yEnv); err != nil {
			return err
		}
		outerTab, err = ev.legacyEval(outerKey, en)
		return err
	})
	if err != nil {
		return nil, false, err
	}

	outerGroups := engine.GroupByEnv(en.index, en.depth, outerTab.rel)
	innerGroups := engine.GroupByEnv(yIndex, yDepth, innerTab.rel)
	pairs, joinInfo, err := mergeJoinEnvs(en.index, outerGroups, yIndex, innerGroups, d0, ev.opts.Parallelism, ev.spill)
	if err != nil {
		return nil, false, err
	}
	ev.noteSpill(joinInfo.spill)

	newDepth := en.depth + domTab.local
	yValGroups := engine.GroupByEnv(yIndex, yDepth, yBound)
	var yPosGroups [][]interval.Tuple
	if yPos != nil {
		yPosGroups = engine.GroupByEnv(yIndex, yDepth, yPos)
	}
	newIndex := make(engine.Index, 0, len(pairs))
	joined := &interval.Relation{}
	joinedPos := &interval.Relation{}
	rebase := func(dst *interval.Relation, base interval.Key, g []interval.Tuple) {
		for _, t := range g {
			dst.Tuples = append(dst.Tuples, interval.Tuple{
				S: t.S,
				L: base.Append(t.L.Suffix(yDepth)...),
				R: base.Append(t.R.Suffix(yDepth)...),
			})
		}
	}
	for _, p := range pairs {
		envKey := en.index[p.outer].Extend(en.depth).Append(yIndex[p.inner].Suffix(d0)...)
		newIndex = append(newIndex, envKey)
		base := envKey.Extend(newDepth)
		rebase(joined, base, yValGroups[p.inner])
		if yPosGroups != nil {
			rebase(joinedPos, base, yPosGroups[p.inner])
		}
	}

	child := en.child(newDepth, newIndex)
	child.vars[e.Var] = binding{tab: &table{rel: joined, local: domTab.local}, depth: newDepth}
	if e.Pos != "" {
		child.vars[e.Pos] = binding{tab: &table{rel: joinedPos, local: 1}, depth: newDepth}
	}

	var residual xq.Cond
	for i, c := range conjuncts {
		if i != keyIdx {
			residual = andWith(residual, c)
		}
	}
	bodyExpr := w.Body
	if residual != nil {
		bodyExpr = xq.Where{Cond: residual, Body: w.Body}
	}
	body, err := ev.legacyEval(bodyExpr, child)
	if err != nil {
		return nil, false, err
	}
	return &table{rel: body.rel, local: domTab.local + body.local}, true, nil
}

func (ev *evaluator) legacyMaxFreeDepth(e xq.Expr, en *env) (int, bool) {
	depth := 0
	for name := range xq.FreeVars(e) {
		if len(name) > 4 && name[:4] == "doc:" {
			continue
		}
		b, ok := en.lookup(name)
		if !ok {
			return 0, false
		}
		if b.depth > depth {
			depth = b.depth
		}
	}
	return depth, true
}

func (ev *evaluator) legacyIsInnerKey(e xq.Expr, loopVar string, d0 int, en *env) bool {
	free := xq.FreeVars(e)
	if !free[loopVar] {
		return false
	}
	for name := range free {
		if name == loopVar || (len(name) > 4 && name[:4] == "doc:") {
			continue
		}
		b, ok := en.lookup(name)
		if !ok || b.depth > d0 {
			return false
		}
	}
	return true
}

func (ev *evaluator) legacyIsOuterKey(e xq.Expr, loopVar string, en *env) bool {
	free := xq.FreeVars(e)
	if free[loopVar] {
		return false
	}
	for name := range free {
		if len(name) > 4 && name[:4] == "doc:" {
			continue
		}
		if _, ok := en.lookup(name); !ok {
			return false
		}
	}
	return true
}

// legacyCallCount reads the decimal count a take/drop call carries in its
// Label, mirroring the plan executor's opCount.
func legacyCallCount(e xq.Call) int64 {
	n, err := strconv.ParseInt(e.Label, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// legacyWalk runs the preserved executor over an already-rewritten
// expression.
func legacyWalk(e xq.Expr, cat Catalog, opts Options) (*interval.Relation, error) {
	ev := newEvaluator(cat, opts)
	tab, err := ev.legacyEval(e, ev.rootEnv())
	if err != nil {
		return nil, err
	}
	return tab.rel, nil
}

// FuzzCompileExecute asserts the refactor's core invariant: compiling a
// random expression to the plan IR and executing the plan yields digit-
// for-digit identical result relations to the legacy AST walk, in both
// join modes and with path-chain fusion on and off.
func FuzzCompileExecute(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 20030609} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		docs := map[string]xmltree.Forest{
			"d1": xmltree.RandomForest(rng, 6),
			"d2": xmltree.RandomForest(rng, 6),
		}
		cat := EncodeCatalog(docs)
		e := xq.RandomExpr(rng, []string{"d1", "d2"}, 3)
		q := Compile(e, Options{})
		for _, opts := range []Options{
			{ForceJoinMode: ModeMSJ},
			{ForceJoinMode: ModeNLJ},
			{ForceJoinMode: ModeMSJ, NoPipeline: true},
		} {
			want, werr := legacyWalk(q.Expr, cat, opts)
			got, gerr := q.Eval(cat, opts)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("seed %d %v: legacy err %v, plan err %v on %s", seed, opts, werr, gerr, e)
			}
			if werr != nil {
				continue
			}
			sameTuples(t, fmt.Sprintf("seed %d %v: %s", seed, opts, e), got, want)
		}
	})
}
