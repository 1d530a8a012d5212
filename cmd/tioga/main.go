// Command tioga is the interactive Tioga-2 shell: the direct-manipulation
// surface of the environment, with one textual command per menu operation
// of the paper (Figures 2, 3, 5, 6 and Sections 6-8). It seeds the
// synthetic Louisiana weather database (or loads a saved one) and drops
// into a REPL.
//
// Usage:
//
//	tioga [-db dir] [-stations 400] [-perstation 132] [-seed 42]
//
// Type "help" at the prompt for the command list.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/db"
)

func main() {
	dbPath := flag.String("db", "", "load a database directory written by savedb instead of seeding")
	stations := flag.Int("stations", 400, "seeded stations")
	perStation := flag.Int("perstation", 132, "seeded observations per station")
	seed := flag.Int64("seed", 42, "generator seed")
	flag.Parse()

	var database *db.Database
	var err error
	if *dbPath != "" {
		database, err = db.LoadDir(*dbPath)
	} else {
		database, err = core.SeedDatabase(*stations, *perStation, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tioga:", err)
		os.Exit(1)
	}

	env := core.NewEnvironment(database)
	sh := newShell(env, os.Stdout)
	fmt.Println("Tioga-2 shell. Type 'help' for commands, 'quit' to exit.")
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("tioga> ")
	for scanner.Scan() {
		line := scanner.Text()
		if quit := sh.Execute(line); quit {
			return
		}
		for _, w := range env.TakeWarnings() {
			fmt.Println("warning:", w)
		}
		fmt.Print("tioga> ")
	}
}
