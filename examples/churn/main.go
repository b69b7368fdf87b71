// Churn: the DHT substrate under membership churn, driven by the built-in
// "churn" scenario (crash half an introducer's score managers
// mid-introduction; the lend lands anyway).
//
// The paper: "the arrival of new nodes does influence DHT-based routing as
// the score managers assigned to a peer change over time. However, by
// using multiple score managers this impact is significantly reduced" and
// "redundancy is introduced in the system in case a score manager crashes
// before being able to contact the new peer's score managers."
//
// The driver (1) tracks how a peer's score-manager set migrates as the
// ring grows, and (2) steps the scenario's crash-and-introduce phase.
//
// Run with: go run ./examples/churn
package main

import (
	"fmt"
	"log"
	"slices"

	"repro/internal/id"
	"repro/internal/scenario"
)

func main() {
	spec, err := scenario.Get("churn")
	if err != nil {
		log.Fatal(err)
	}
	r, err := spec.Start()
	if err != nil {
		log.Fatal(err)
	}
	w := r.World()

	// (1) Score-manager migration under growth.
	subject := w.AdmittedPeers()[0]
	// ScoreManagers returns the placement cache's own slice, which the
	// joins below repair in place: keep a copy to compare against.
	before := slices.Clone(w.ScoreManagers(subject))
	fmt.Printf("peer %s score managers at n=%d:\n", subject.Short(), w.Ring().Size())
	printSMs(before)

	// Phase 1 at tick 50000: the scenario crashes half the score managers
	// of a reputable naive member and injects a newcomer through it.
	if _, err := r.StepPhase(); err != nil {
		log.Fatal(err)
	}
	after := w.ScoreManagers(subject)
	fmt.Printf("\nafter growing to n=%d:\n", w.Ring().Size())
	printSMs(after)
	moved := 0
	for i := range before {
		if before[i] != after[i] {
			moved++
		}
	}
	fmt.Printf("%d of %d score-manager slots moved — yet the peer's reputation survived: %.3f\n",
		moved, len(before), w.Reputation(subject))

	outcome := r.Outcomes()[0]
	fmt.Printf("\ncrashed half the score managers of introducer %s, then introduced %s through it\n",
		outcome.Introducer.Short(), outcome.Peer.Short())

	// Phase 2 at tick 50201: the waiting period has elapsed and the
	// crashed managers recover.
	if _, err := r.StepPhase(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("introduction executed through the surviving managers: newcomer reputation %.3f (want %.2f)\n",
		w.Reputation(outcome.Peer), spec.Base.IntroAmt)

	if _, err := r.Finish(); err != nil {
		log.Fatal(err)
	}
}

func printSMs(sms []id.ID) {
	for i, sm := range sms {
		fmt.Printf("  replica %d -> node %s\n", i, sm.Short())
	}
}
