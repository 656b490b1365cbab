// Command drrepair salvages damaged pinball files: it keeps the longest
// checksum-valid prefix of frames, truncates it to its last intact
// divergence checkpoint unless the whole region survived, and writes the
// recovered pinball back out as a clean, committed file.
//
// Usage:
//
//	drrepair -pinball damaged.pinball [-out repaired.pinball] [-json] [-dry-run]
//
// Without -out the repaired pinball is written next to the input as
// <input>.repaired. An intact input is reported as such and nothing is
// written. -dry-run diagnoses without writing.
//
// Verification mode re-hashes a pinball against its expected content
// digest — the identity the content-addressed store, circuit breakers
// and fleet routing all key on:
//
//	drrepair -verify -pinball f.pinball [-digest <hex>] [-store <root>]
//
// With -digest the file must hash to exactly that digest; with -store
// the hash must name a live entry of that store whose manifest metadata
// matches the file's size. Either mismatch exits non-zero with a typed
// error, so a cron job can sweep a pinball directory against its store.
//
// Exit codes follow the shared drreplay/drdebug table (cmd/internal/cli):
// 0 the file is intact, 1 usage error, 2 the file is unsalvageable (or
// -verify found a digest mismatch), 4 the file was damaged and repaired
// (degraded — with -dry-run, diagnosed as repairable), 10 -store has no
// entry for the file's digest. A damaged input never exits 0, so
// scripts can chain drrepair with the replay tools and treat any
// non-zero status uniformly as "this pinball needed attention".
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	drdebug "repro"
	"repro/cmd/internal/cli"
	"repro/internal/store"
)

func main() {
	var (
		pinballP = flag.String("pinball", "", "damaged pinball file (required)")
		out      = flag.String("out", "", "where to write the repaired pinball (default <input>.repaired)")
		jsonOut  = flag.Bool("json", false, "print the salvage report as JSON on stdout")
		dryRun   = flag.Bool("dry-run", false, "diagnose only, write nothing")

		verify    = flag.Bool("verify", false, "verify the file's content digest instead of repairing")
		digest    = flag.String("digest", "", "verify: the digest the file must hash to")
		storeRoot = flag.String("store", "", "verify: store root whose manifest must hold the file's digest")
	)
	flag.Parse()
	if *verify {
		os.Exit(runVerify(*pinballP, *digest, *storeRoot, *jsonOut))
	}
	if err := run(*pinballP, *out, *jsonOut, *dryRun); err != nil {
		os.Exit(cli.Fail("drrepair", err))
	}
}

// verifyReport is -verify's JSON output shape.
type verifyReport struct {
	Pinball string `json:"pinball"`
	Digest  string `json:"digest"`
	Size    int64  `json:"size"`
	Want    string `json:"want,omitempty"`     // expected digest, when -digest given
	Match   bool   `json:"match"`              // digest (and store entry, if checked) agree
	InStore bool   `json:"in_store,omitempty"` // manifest holds the digest, when -store given
	Error   string `json:"error,omitempty"`
}

// runVerify re-hashes one pinball file against its expected identity
// and returns the process exit code.
func runVerify(path, want, storeRoot string, jsonOut bool) int {
	finish := func(rep verifyReport, err error) int {
		if err != nil {
			rep.Error = err.Error()
		}
		if jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(rep)
		}
		if err == nil {
			if !jsonOut {
				fmt.Printf("%s %s verified\n", rep.Digest, path)
			}
			return 0
		}
		fmt.Fprintf(os.Stderr, "drrepair: %v\n", err)
		switch {
		case errors.Is(err, store.ErrDigestMismatch):
			return cli.ExitBadPinball
		case errors.Is(err, store.ErrNotFound):
			return cli.ExitStoreUnavailable
		}
		return cli.ExitCode(err)
	}

	rep := verifyReport{Pinball: path}
	if path == "" {
		return finish(rep, fmt.Errorf("need -pinball <file>"))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return finish(rep, err)
	}
	rep.Size = int64(len(data))
	rep.Digest = store.Digest(data)

	if want != "" {
		rep.Want = want
		if rep.Digest != want {
			return finish(rep, fmt.Errorf("%w: %s hashes to %s, want %s",
				store.ErrDigestMismatch, path, rep.Digest, want))
		}
		rep.Match = true
	}
	if storeRoot != "" {
		s, err := store.Open(storeRoot)
		if err != nil {
			return finish(rep, err)
		}
		info, err := s.Stat(rep.Digest)
		if err != nil {
			return finish(rep, fmt.Errorf("store at %s: digest %s: %w", storeRoot, rep.Digest, err))
		}
		rep.InStore = true
		if info.Size != rep.Size {
			return finish(rep, fmt.Errorf("%w: manifest records %d bytes for %s, file has %d",
				store.ErrDigestMismatch, info.Size, rep.Digest, rep.Size))
		}
		rep.Match = true
	}
	if want == "" && storeRoot == "" {
		// No external identity to compare against: the digest itself is
		// the output, but the file must at least be a loadable pinball.
		if _, err := drdebug.LoadPinball(path); err != nil {
			return finish(rep, err)
		}
		rep.Match = true
	}
	return finish(rep, nil)
}

func run(path, out string, jsonOut, dryRun bool) error {
	if path == "" {
		return fmt.Errorf("need -pinball <file>")
	}
	pb, rep, err := drdebug.SalvagePinball(path)
	if rep != nil && jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if jerr := enc.Encode(rep); jerr != nil {
			return jerr
		}
	}
	if err != nil {
		if !jsonOut && rep != nil {
			fmt.Fprintln(os.Stderr, rep.Summary())
		}
		return err
	}
	if !jsonOut {
		fmt.Println(rep.Summary())
	}
	if rep.Intact {
		return nil
	}
	if dryRun {
		return fmt.Errorf("pinball is damaged but repairable: %w", cli.ErrDegraded)
	}
	if out == "" {
		out = path + ".repaired"
	}
	if err := pb.Save(out); err != nil {
		return err
	}
	if !jsonOut {
		fmt.Printf("repaired pinball written to %s\n", out)
	}
	return fmt.Errorf("pinball was damaged and repaired into %s: %w", out, cli.ErrDegraded)
}
