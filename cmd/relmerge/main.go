// Command relmerge applies the relation merging technique of Markowitz
// (ICDE 1992) to a relational schema written in the SDL notation (see
// internal/sdl): it merges a set of relation-schemes with compatible primary
// keys, optionally removes redundant attributes, checks the applicability
// conditions of Propositions 5.1 and 5.2, and prints the result as SDL, in
// the paper's notation, or as DDL for a target dialect.
//
// Usage:
//
//	relmerge -schema schema.sdl -merge COURSE,OFFER,TEACH -name "COURSE'" \
//	         [-remove all|MEMBER,...] [-check] [-out sdl|paper|db2|sybase|ingres]
//	relmerge -fig3 -merge COURSE,OFFER,TEACH -name "COURSE'"   # built-in demo
//	relmerge -schema schema.sdl -plan                          # Prop 5.2 planner
//	relmerge -fig3 -merge COURSE,OFFER -metrics text \
//	         -durable ./wal -fsync always                      # durable replay
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/ddl"
	"repro/internal/diff"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/sdl"
	"repro/internal/state"
	"repro/internal/wal"
)

func main() {
	var (
		schemaPath = flag.String("schema", "", "path to an SDL schema file (- for stdin)")
		useFig3    = flag.Bool("fig3", false, "use the paper's figure 3 schema as input")
		mergeList  = flag.String("merge", "", "comma-separated merge set R̄")
		name       = flag.String("name", "MERGED", "name of the merged relation-scheme")
		removeList = flag.String("remove", "", "members whose key copies to remove ('all' for every removable one)")
		check      = flag.Bool("check", false, "report the Prop. 5.1/5.2 conditions for the merge set")
		plan       = flag.Bool("plan", false, "plan and apply all Prop. 5.2 merges instead of a single merge")
		out        = flag.String("out", "paper", "output format: paper, sdl, json, db2, sybase, or ingres")
		dataPath   = flag.String("data", "", "optional data file (insert statements); the state is checked against the input schema and mapped through the merge")
		migrate    = flag.Bool("migrate", false, "also print the SQL data-migration script realizing the η mapping")
		showDiff   = flag.Bool("diff", false, "also print the schema diff (input vs merged)")
		showTrace  = flag.Bool("trace", false, "also print the Definition 4.1/4.3 provenance trace")
		metrics    = flag.String("metrics", "", "append an observability report (json or text): replays -data or a built-in state into base and merged engines sharing one registry")
		durableDir = flag.String("durable", "", "directory for the metrics engines' write-ahead logs: the replay is logged, checkpointed, and recoverable (requires -metrics; a reopened directory recovers instead of replaying)")
		fsyncMode  = flag.String("fsync", "interval", "fsync policy for -durable: always, interval, or never")
		remoteAddr = flag.String("remote", "", "address of a running relmerged server: replay -data (or the built-in state) into it instead of reporting locally")
	)
	flag.Parse()

	fsyncPolicy, err := wal.ParseSyncPolicy(*fsyncMode)
	if err != nil {
		fatal(fmt.Errorf("relmerge: %w", err))
	}
	if *durableDir != "" && *metrics == "" {
		fatal(fmt.Errorf("relmerge: -durable needs -metrics (it makes the replay engines durable)"))
	}

	var tracer *obs.Tracer
	if *metrics != "" {
		if *metrics != "json" && *metrics != "text" {
			fatal(fmt.Errorf("relmerge: unknown -metrics mode %q (want json or text)", *metrics))
		}
		tracer = obs.NewTracer(obs.DefaultTraceCapacity)
	}

	s, err := loadSchema(*schemaPath, *useFig3)
	if err != nil {
		fatal(err)
	}

	// -remote replays the chosen state into a running relmerged server (which
	// must serve this same schema) instead of reporting locally.
	if *remoteAddr != "" {
		st, err := replayState(s, *dataPath, *useFig3)
		if err != nil {
			fatal(err)
		}
		if err := runRemoteLoad(os.Stdout, *remoteAddr, s, st); err != nil {
			fatal(err)
		}
		return
	}

	if *plan {
		clusters := core.Prop52Clusters(s)
		if len(clusters) == 0 {
			fmt.Println("no merge set satisfies the Prop. 5.2 conditions")
			return
		}
		for _, c := range clusters {
			fmt.Printf("merge set (key-relation %s): %s\n", c[0], strings.Join(c, ", "))
		}
		merged, _, err := core.ApplyPlan(s, clusters)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		if err := emit(merged, *out); err != nil {
			fatal(err)
		}
		return
	}

	if *mergeList == "" {
		if err := emit(s, *out); err != nil {
			fatal(err)
		}
		return
	}
	names := splitList(*mergeList)

	if *check {
		kb, nn := core.Prop51(s, names)
		fmt.Printf("Prop 5.1(i)  only key-based inclusion dependencies after merge: %v\n", kb)
		fmt.Printf("Prop 5.1(ii) merged keys free of nulls:                         %v\n", nn)
		if rk, ok := core.Prop52(s, names); ok {
			fmt.Printf("Prop 5.2     only nulls-not-allowed constraints after Remove:  true (key-relation %s)\n", rk)
		} else {
			fmt.Printf("Prop 5.2     only nulls-not-allowed constraints after Remove:  false\n")
		}
	}

	m, err := core.MergeSet(s, names, core.WithName(*name), core.WithTrace(tracer))
	if err != nil {
		fatal(err)
	}
	switch {
	case *removeList == "all":
		removed := m.RemoveAll(core.WithTrace(tracer))
		fmt.Printf("-- removed key copies of: %s\n", strings.Join(removed, ", "))
	case *removeList != "":
		for _, member := range splitList(*removeList) {
			if err := m.Remove(member, core.WithTrace(tracer)); err != nil {
				fatal(err)
			}
		}
	}
	if *check {
		prog, err := schema.Compile(m.Schema)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("merged constraint set only-NNA: %v\n\n", len(prog.Rel(*name).Nulls) == 0)
	}
	if err := emit(m.Schema, *out); err != nil {
		fatal(err)
	}
	if *showTrace {
		fmt.Println("\n-- provenance:")
		for _, line := range m.Trace() {
			fmt.Println("  " + line)
		}
	}
	if *showDiff {
		fmt.Println("\n-- schema diff:")
		fmt.Print(diff.Format(diff.Schemas(s, m.Schema)))
	}
	if *migrate {
		fmt.Println()
		fmt.Print(ddl.MigrationSQL(m))
	}
	if *dataPath != "" {
		if err := mapData(s, m, *dataPath); err != nil {
			fatal(err)
		}
	}
	if *metrics != "" {
		st, err := replayState(s, *dataPath, *useFig3)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\n-- observability report:")
		if err := metricsReport(os.Stdout, s, m, st, tracer, *metrics, *durableDir, fsyncPolicy); err != nil {
			fatal(err)
		}
	}
}

// mapData loads a state for the original schema, verifies it, maps it
// through η (and the μ projections), and prints the merged state together
// with a round-trip check.
func mapData(s *schema.Schema, m *core.MergedScheme, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	db, err := sdl.ParseState(s, string(data))
	if err != nil {
		return err
	}
	if err := state.Consistent(s, db); err != nil {
		return fmt.Errorf("relmerge: input state inconsistent: %w", err)
	}
	mapped := m.MapState(db)
	fmt.Println("\n-- mapped state (η):")
	fmt.Print(sdl.PrintState(m.Schema, mapped))
	fmt.Printf("-- mapped state consistent with merged schema: %v\n", state.IsConsistent(m.Schema, mapped))
	fmt.Printf("-- round trip η′∘η restores the input state:   %v\n", m.UnmapState(mapped).Equal(db))
	return nil
}

func loadSchema(path string, fig3 bool) (*schema.Schema, error) {
	if fig3 {
		return figures.Fig3(), nil
	}
	if path == "" {
		return nil, fmt.Errorf("relmerge: need -schema FILE or -fig3")
	}
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return sdl.ParseSchema(string(data))
}

func emit(s *schema.Schema, format string) error {
	switch format {
	case "paper":
		fmt.Print(s.String())
		return nil
	case "sdl":
		fmt.Print(sdl.PrintSchema(s))
		return nil
	case "json":
		data, err := json.Marshal(s)
		if err != nil {
			return err
		}
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, data, "", "  "); err != nil {
			return err
		}
		fmt.Println(pretty.String())
		return nil
	default:
		d, err := ddl.ParseDialect(format)
		if err != nil {
			return err
		}
		out, err := ddl.Generate(s, ddl.Options{Dialect: d})
		fmt.Print(out)
		return err
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
