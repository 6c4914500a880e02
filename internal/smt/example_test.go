package smt_test

import (
	"fmt"

	"lisa/internal/smt"
)

// The paper's §3.2 worked example: a trace that omits the s.ttl check is
// satisfiable together with the checker's complement, hence a violation.
func ExampleComplement() {
	checker := smt.MustParsePredicate(`s != null && s.isClosing() == false && s.ttl > 0`)
	comp := smt.Complement(checker)
	fmt.Println("complement:", comp)

	omitsTTL := smt.MustParsePredicate(`s != null && s.isClosing() == false`)
	fullGuard := smt.MustParsePredicate(`s != null && s.isClosing() == false && s.ttl > 0`)
	violates := func(trace smt.Formula) bool {
		sat, err := smt.SATLim(smt.NewAnd(trace, comp), smt.Limits{})
		if err != nil {
			panic(err)
		}
		return sat
	}
	fmt.Println("omits ttl violates:", violates(omitsTTL))
	fmt.Println("full guard violates:", violates(fullGuard))
	// Output:
	// complement: s == null || s.isClosing || s.ttl <= 0
	// omits ttl violates: true
	// full guard violates: false
}

func ExampleImpliesLim() {
	p := smt.MustParsePredicate(`x == 3`)
	q := smt.MustParsePredicate(`x > 2`)
	pq, err := smt.ImpliesLim(p, q, smt.Limits{})
	if err != nil {
		panic(err)
	}
	qp, err := smt.ImpliesLim(q, p, smt.Limits{})
	if err != nil {
		panic(err)
	}
	fmt.Println(pq, qp)
	// Output: true false
}

func ExampleParsePredicate() {
	f, err := smt.ParsePredicate(`lease != null && lease.isValid() && retries < 5`)
	if err != nil {
		panic(err)
	}
	fmt.Println(f)
	// Output: lease != null && lease.isValid && retries < 5
}
