package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp identifies what a result was measured on and with.
type stamp struct {
	Commit     string                 `json:"commit"`
	CPU        string                 `json:"cpu"`
	NProc      int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	GoVersion  string                 `json:"go"`
	Seed       uint64                 `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Workload   string                 `json:"workload"`
	Params     map[string]interface{} `json:"params"`
}

func newStamp(o options) stamp {
	return stamp{
		Commit:     commitOf(o.root),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       o.seed,
		Seconds:    o.seconds.Seconds(),
		Trace:      o.trace,
	}
}

// commitOf names the source tree. In a clean git checkout it is the
// commit. Anywhere else — a checkout with uncommitted changes, or an
// exported tree — it is "tree:" and a digest of the tree's Go sources,
// after the commit and "-dirty" when there is one, so a result is never
// credited to a commit whose code did not run.
func commitOf(root string) string {
	var commit string
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output()
		if err == nil && len(st) == 0 {
			return commit
		}
		commit += "-dirty+"
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write(data)
		return nil
	})
	if err != nil {
		return commit + "unknown"
	}
	return commit + "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel reads the processor name from /proc/cpuinfo where there is one.
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
