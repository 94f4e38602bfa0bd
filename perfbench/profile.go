package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// startProfile writes a CPU profile of the calling process to the
// output directory until the returned stop runs; stop then attributes
// every sample to the innermost adaptmr/internal/* frame on its stack
// (via go tool pprof -traces), writes and prints the share table, and
// returns the CPU time per package — each layer's self time.
func startProfile(o options) (stop func() (map[string]time.Duration, error), err error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	f, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() (map[string]time.Duration, error) {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, err
		}
		shares, table, err := shareTable(f.Name())
		if err != nil {
			return nil, fmt.Errorf("share table: %w", err)
		}
		fmt.Fprintf(os.Stderr, "CPU share by innermost adaptmr/internal package (%s):\n%s", f.Name(), table)
		return shares, os.WriteFile(base+".shares.txt", []byte(table), 0o644)
	}, nil
}

// shareTable runs go tool pprof -traces on the profile and sums sample
// time per package.
func shareTable(profile string) (map[string]time.Duration, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	goBin := os.Getenv("PERFBENCH_GO")
	if goBin == "" {
		goBin = "go"
	}
	out, err := exec.Command(goBin, "tool", "pprof", "-traces", exe, profile).Output()
	if err != nil {
		return nil, "", fmt.Errorf("go tool pprof: %w", err)
	}
	shares, total := attribute(out)
	if total == 0 {
		return nil, "", fmt.Errorf("profile holds no samples")
	}
	pkgs := make([]string, 0, len(shares))
	for p := range shares {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(a, b int) bool {
		if shares[pkgs[a]] != shares[pkgs[b]] {
			return shares[pkgs[a]] > shares[pkgs[b]]
		}
		return pkgs[a] < pkgs[b]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "  %-28s %8s %6s\n", "package", "cpu", "share")
	for _, p := range pkgs {
		fmt.Fprintf(&b, "  %-28s %8s %5.1f%%\n", p, shares[p].Round(time.Millisecond), 100*float64(shares[p])/float64(total))
	}
	fmt.Fprintf(&b, "  %-28s %8s\n", "total", total.Round(time.Millisecond))
	return shares, b.String(), nil
}

// attribute parses go tool pprof -traces output: blocks separated by
// dashed lines, each opening with the sample value and the leaf frame,
// followed by caller frames one per line.
func attribute(traces []byte) (map[string]time.Duration, time.Duration) {
	shares := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	pkg := ""
	flush := func() {
		if value > 0 {
			if pkg == "" {
				pkg = "(outside adaptmr/internal)"
			}
			shares[pkg] += value
			total += value
		}
		value, pkg = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(traces))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := fields[len(fields)-1]
		if len(fields) == 2 {
			if d, err := time.ParseDuration(fields[0]); err == nil {
				value = d
			}
		}
		if pkg == "" && value > 0 {
			if rest, ok := strings.CutPrefix(frame, "adaptmr/internal/"); ok {
				if i := strings.IndexByte(rest, '.'); i > 0 {
					pkg = rest[:i]
				}
			}
		}
	}
	flush()
	return shares, total
}
