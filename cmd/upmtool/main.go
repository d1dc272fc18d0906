// Command upmtool trains the User Profiling Model on a query log and
// prints its learned structure: per-topic word content (under the
// learned β priors), temporal Beta profiles, and per-user topic
// profiles with each user's personal top words — the interpretability
// view of the paper's Section V-A.
//
// Usage:
//
//	upmtool -log log.tsv -k 10 -iters 80
//	upmtool -synthetic -users 20 -k 8 -user u0003
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro"
	"repro/internal/querylog"
	"repro/internal/topicmodel"
)

func main() {
	var (
		logPath   = flag.String("log", "", "TSV query log")
		aol       = flag.Bool("aol", false, "treat -log as AOL-format")
		synthetic = flag.Bool("synthetic", false, "generate a synthetic log")
		users     = flag.Int("users", 20, "synthetic users")
		k         = flag.Int("k", 10, "topic count")
		iters     = flag.Int("iters", 80, "Gibbs sweeps")
		seed      = flag.Int64("seed", 1, "seed")
		topN      = flag.Int("top", 8, "words shown per topic")
		user      = flag.String("user", "", "also print this user's profile in detail")
	)
	flag.Parse()

	var log *pqsda.Log
	switch {
	case *logPath != "":
		f, err := os.Open(*logPath)
		if err != nil {
			fatal(err)
		}
		if *aol {
			log, err = pqsda.ReadAOLLog(f)
		} else {
			log, err = pqsda.ReadLog(f)
		}
		f.Close()
		if err != nil {
			fatal(err)
		}
	case *synthetic:
		log = pqsda.SyntheticLog(pqsda.SyntheticConfig{Seed: *seed, NumUsers: *users, SessionsPerUser: 25}).Log
	default:
		fatal(fmt.Errorf("need -log FILE or -synthetic"))
	}

	clean, _ := querylog.Clean(log, querylog.CleanerConfig{})
	sessions := querylog.Sessionize(clean, querylog.SessionizerConfig{})
	corpus := topicmodel.BuildCorpus(sessions, nil)
	fmt.Fprintf(os.Stderr, "corpus: %d users, %d word types, %d URLs, %d tokens\n",
		len(corpus.Docs), corpus.V(), corpus.U(), corpus.TotalWords())

	upm := topicmodel.TrainUPM(corpus, topicmodel.UPMConfig{
		K: *k, Iterations: *iters, Seed: *seed,
		HyperRounds: 2, HyperIters: 15,
	})

	fmt.Println("== learned topics (global content via β priors) ==")
	for t := 0; t < upm.K(); t++ {
		a, b := upm.Tau(t)
		fmt.Printf("topic %2d  time Beta(%.2f,%.2f) mean %.2f  words:", t, a, b, a/(a+b))
		for _, w := range upm.TopWords(t, *topN) {
			fmt.Printf(" %s", corpus.Words.Name(w))
		}
		fmt.Println()
	}

	// Users ranked by profile concentration (most focused first).
	type uc struct {
		id  string
		max float64
	}
	var ranked []uc
	for _, doc := range corpus.Docs {
		d, _ := upm.DocOf(doc.UserID)
		theta := upm.Theta(d)
		m := 0.0
		for _, p := range theta {
			if p > m {
				m = p
			}
		}
		ranked = append(ranked, uc{doc.UserID, m})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].max > ranked[j].max })
	fmt.Println("\n== most focused users ==")
	for i := 0; i < 5 && i < len(ranked); i++ {
		fmt.Printf("%-10s peak θ = %.2f\n", ranked[i].id, ranked[i].max)
	}

	if *user != "" {
		d, ok := upm.DocOf(*user)
		if !ok {
			fatal(fmt.Errorf("user %q not in corpus", *user))
		}
		theta := upm.Theta(d)
		fmt.Printf("\n== profile of %s ==\n", *user)
		for t := 0; t < upm.K(); t++ {
			if theta[t] < 0.05 {
				continue
			}
			fmt.Printf("topic %2d  θ = %.2f  personal words:", t, theta[t])
			for _, w := range upm.TopWordsFor(d, t, *topN) {
				fmt.Printf(" %s", corpus.Words.Name(w))
			}
			fmt.Println()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "upmtool:", err)
	os.Exit(1)
}
