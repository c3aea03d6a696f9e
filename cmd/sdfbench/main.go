// Command sdfbench regenerates the tables and figures of the paper's
// evaluation section:
//
//	sdfbench -experiment table1        # Table 1 + Fig. 25 on practical systems
//	sdfbench -experiment fig27         # random-graph study (Fig. 27 a-f)
//	sdfbench -experiment randomsort    # Sec. 10.1 random topological sorts
//	sdfbench -experiment homogeneous   # Sec. 10.2 / Fig. 26
//	sdfbench -experiment sdppo-vs-dppo # Sec. 10.1 looping ablation
//	sdfbench -experiment satrec        # Sec. 11 comparisons
//	sdfbench -experiment cddat         # Sec. 11.1.3 input buffering
//	sdfbench -experiment dynamic       # Sec. 11.1.3 data-driven scheduling
//	sdfbench -experiment merging       # Sec. 12 buffer-merging extension
//	sdfbench -experiment tradeoff      # code-size vs buffer-memory frontier
//	sdfbench -experiment exact         # heuristics vs exhaustive optimum
//	sdfbench -experiment parallel      # partitioned memory vs worker count P
//	sdfbench -experiment all
//
// -quick reduces population sizes for a fast smoke run; -seed seeds the
// stochastic studies. The repo's performance benchmark is bench/ (see
// bench/README.md), not this command.
//
// sdfbench -compare [-threshold r] [-md file] old.json new.json diffs two
// LOAD_*.json saturation reports from sdfload and gates on a regression
// threshold; see compare.go.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/sdf"
	"repro/internal/systems"
)

func main() {
	fs := flag.NewFlagSet("sdfbench", flag.ContinueOnError)
	var (
		exp       = fs.String("experiment", "all", "which experiment to run")
		quick     = fs.Bool("quick", false, "reduced population sizes")
		seed      = fs.Int64("seed", 2000, "random seed for stochastic studies")
		compare   = fs.Bool("compare", false, "compare two sdfload reports (sdfbench -compare old.json new.json) instead of running experiments")
		threshold = fs.Float64("threshold", 1.25, "for -compare: flag a regression when a series worsens beyond this ratio")
		mdOut     = fs.String("md", "", "for -compare: write the markdown report to this file (default stdout)")
	)
	if code := core.ParseCLI(fs, os.Args[1:]); code >= 0 {
		os.Exit(code)
	}

	if *compare {
		args := fs.Args()
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "sdfbench: -compare needs exactly two load reports: sdfbench -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(args[0], args[1], *mdOut, *threshold))
	}

	ran := 0
	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		ran++
		start := time.Now()
		fmt.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "sdfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() error {
		rows, err := experiments.DefaultTable1()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable1(rows) + "\n" + experiments.FormatFig25(rows))
		return nil
	})

	run("fig27", func() error {
		cfg := experiments.DefaultFig27Config()
		cfg.Seed = *seed
		if *quick {
			cfg = experiments.Fig27Config{Sizes: []int{20, 50}, PerSize: 10, Seed: *seed}
		}
		pts, err := experiments.Fig27(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig27(pts))
		return nil
	})

	run("randomsort", func() error {
		small := 1000
		large := 100
		if *quick {
			small, large = 50, 5
		}
		jobs := []struct {
			name   string
			trials int
		}{
			{"satrec", small},
			{"blockVox", small},
			{"qmf12_5d", large},
			{"qmf235_5d", large},
		}
		results, err := par.Map(len(jobs), func(i int) (experiments.RandomSortResult, error) {
			return experiments.RandomSort(mustSystem(jobs[i].name), jobs[i].trials, *seed)
		})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatRandomSort(results))
		return nil
	})

	run("homogeneous", func() error {
		rows, err := experiments.Homogeneous([]int{2, 4, 8}, []int{4, 8, 16})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatHomogeneous(rows))
		return nil
	})

	run("sdppo-vs-dppo", func() error {
		rows, err := experiments.SdppoVsDppo(systems.Table1Systems())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSdppoVsDppo(rows))
		return nil
	})

	run("satrec", func() error {
		cmp, err := experiments.Satrec()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSatrec(cmp))
		return nil
	})

	run("cddat", func() error {
		rows, err := experiments.CDDAT()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatCDDAT(rows))
		return nil
	})

	run("dynamic", func() error {
		rows, err := experiments.DynamicVsStatic(systems.Table1Systems())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatDynamic(rows))
		return nil
	})

	run("tradeoff", func() error {
		rows, err := experiments.Tradeoff(systems.Table1Systems())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTradeoff(rows))
		return nil
	})

	run("exact", func() error {
		n := 20
		if *quick {
			n = 6
		}
		rows, err := experiments.ExactStudy(
			[]*sdf.Graph{systems.OverAddFFT(), systems.PAM4TransmitRecv()}, n, 100_000, *seed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatExact(rows))
		return nil
	})

	run("parallel", func() error {
		rows, err := experiments.ParallelMemory(systems.Table1Systems(), []int{2, 4})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatParallel(rows))
		return nil
	})

	run("merging", func() error {
		rows, err := experiments.Merging(systems.Table1Systems())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatMerging(rows))
		return nil
	})

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "sdfbench: unknown experiment %q (see -h for the list)\n", *exp)
		os.Exit(2)
	}
}

func mustSystem(name string) *sdf.Graph {
	for _, g := range systems.Table1Systems() {
		if g.Name == name {
			return g
		}
	}
	fmt.Fprintf(os.Stderr, "sdfbench: unknown system %q\n", name)
	os.Exit(1)
	return nil
}
