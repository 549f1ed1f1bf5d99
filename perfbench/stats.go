package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// minP99Samples is the fewest samples a p99 is reported from: with 1000,
// ten samples lie beyond it.
const minP99Samples = 1000

// dist is one timing's samples.
type dist []time.Duration

// quantile returns the q-quantile in milliseconds (nearest rank). A p99
// from fewer than minP99Samples samples is refused.
func (d dist) quantile(name string, q float64) (float64, error) {
	if len(d) == 0 {
		return 0, fmt.Errorf("%s: no samples", name)
	}
	if q >= 0.99 && len(d) < minP99Samples {
		return 0, fmt.Errorf("%s: p99 from %d samples (need %d); run longer", name, len(d), minP99Samples)
	}
	s := append(dist(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return ms(s[i]), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// envBlock describes where and how a record was made.
type envBlock struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPU        string         `json:"cpu"`
	Commit     string         `json:"commit"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"run_seconds"`
	Samples    map[string]int `json:"samples"` // sample count behind each percentile
}

func newEnv(seed int64, seconds int) envBlock {
	return envBlock{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Commit:     commit(),
		Seed:       seed,
		Seconds:    seconds,
		Samples:    map[string]int{},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the code under test: the VCS revision the binary was built
// from when the build saw one, else a digest of the Go sources and go.mod
// files under the working directory (the benchmark runs from the root of
// the tree it measures).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	if d, err := treeDigest(); err == nil {
		return "tree:" + d[:12]
	}
	return "unknown"
}

// treeDigest hashes the Go sources and go.mod files under the working
// directory, skipping hidden directories.
func treeDigest() (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		h.Write([]byte(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
