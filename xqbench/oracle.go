package main

import (
	"errors"
	"fmt"
	"sync"

	"dixq/internal/core"
	"dixq/internal/interp"
	"dixq/internal/interval"
	"dixq/internal/sqlgen"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// expected is the oracle answer to one query on one document state: the
// digest of forced DI-MSJ's relation, which DI-OPT must match digit for
// digit, and the digest of the interpreter's serialized forest, which
// every answer's XML must match.
type expected struct {
	Rel, XML uint64
}

// oracleReport is the outcome of the oracle pass.
type oracleReport struct {
	// Answers[state][query] is the expected answer.
	Answers [][]expected
	// SQLChecked counts (state, query) pairs the generated SQL on minisql
	// confirmed; SQLUnsupported counts those outside sqlgen's fragment.
	SQLChecked, SQLUnsupported int
	// errs lists oracle failures and disagreements between oracles.
	errs []string
}

// runOracles answers every query on every document state with the
// independent evaluators: forced DI-MSJ, the interpreter and, when withSQL
// is set, the generated SQL on minisql where sqlgen supports the query.
// The oracles must agree with each other; their answer is then what every
// measured answer is checked against. Work is spread over workers
// goroutines, slowest queries first.
func runOracles(states []xmltree.Forest, withSQL bool, workers int) *oracleReport {
	rep := &oracleReport{Answers: make([][]expected, len(states))}
	type task struct{ state, query int }
	var tasks []task
	for s := range states {
		rep.Answers[s] = make([]expected, len(xmark.All))
		// The interpreter's cost is dominated by Q9, then the theta
		// joins; starting those first keeps both workers busy to the end.
		for _, q := range []int{8, 10, 11, 9, 6} {
			tasks = append(tasks, task{s, q})
		}
		for q := range xmark.All {
			switch q {
			case 8, 10, 11, 9, 6:
			default:
				tasks = append(tasks, task{s, q})
			}
		}
	}
	rels := make([]*interval.Relation, len(states))
	for s, f := range states {
		rels[s] = interval.Encode(f)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	ch := make(chan task)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				exp, sqlOK, err := oracleAnswer(xmark.All[t.query].Text, states[t.state], rels[t.state], withSQL)
				mu.Lock()
				rep.Answers[t.state][t.query] = exp
				switch {
				case err != nil:
					rep.errs = append(rep.errs, fmt.Sprintf("state %d %s: %v", t.state, xmark.All[t.query].Name, err))
				case sqlOK:
					rep.SQLChecked++
				case withSQL:
					rep.SQLUnsupported++
				}
				mu.Unlock()
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
	return rep
}

// oracleAnswer evaluates one query with every oracle and checks that they
// agree. sqlOK reports that the SQL oracle ran and agreed.
func oracleAnswer(text string, f xmltree.Forest, rel *interval.Relation, withSQL bool) (exp expected, sqlOK bool, err error) {
	e, err := xq.Parse(text)
	if err != nil {
		return exp, false, err
	}
	msj, err := core.Compile(e, core.Options{}).Eval(core.Catalog{xmark.DocName: rel},
		core.Options{ForceJoinMode: core.ModeMSJ, Parallelism: 1})
	if err != nil {
		return exp, false, fmt.Errorf("forced DI-MSJ: %w", err)
	}
	msjForest, err := interval.Decode(msj)
	if err != nil {
		return exp, false, fmt.Errorf("forced DI-MSJ decode: %w", err)
	}
	want, err := interp.Eval(e, nil, interp.Catalog{xmark.DocName: f})
	if err != nil {
		return exp, false, fmt.Errorf("interpreter: %w", err)
	}
	if !msjForest.Equal(want) {
		return exp, false, errors.New("forced DI-MSJ and the interpreter disagree")
	}
	exp = expected{Rel: relDigest(msj), XML: xmlDigest(want.String())}
	if !withSQL {
		return exp, false, nil
	}
	got, err := sqlgen.Run(e, map[string]xmltree.Forest{xmark.DocName: f})
	if errors.Is(err, sqlgen.ErrUnsupported) {
		return exp, false, nil
	}
	if err != nil {
		return exp, false, fmt.Errorf("generated SQL: %w", err)
	}
	if !got.Equal(want) {
		return exp, false, errors.New("generated SQL and the interpreter disagree")
	}
	return exp, true, nil
}
