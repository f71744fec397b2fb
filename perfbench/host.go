package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostInfo identifies where and on what a result was measured. Results
// from different hosts are never compared.
type hostInfo struct {
	CPUModel   string `json:"cpuModel"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
}

func currentHost() hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// sameHost reports whether two results come from the same host and
// toolchain; the commit may differ, that is what gets compared.
func (h hostInfo) sameHost(o hostInfo) bool {
	return h.CPUModel == o.CPUModel && h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
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

// commit names the measured source: the git HEAD when the checkout is a
// repository, with a digest of the Go sources and module files appended
// when the working tree has changes; else the digest alone.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return srcDigest()
	}
	id := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err != nil || len(bytes.TrimSpace(st)) > 0 {
		id += "+" + srcDigest()
	}
	return id
}

// srcDigest hashes every Go source and go.mod below the working
// directory, skipping hidden directories such as the build output.
func srcDigest() string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB; pid
// "self" is this process.
func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// clockTick is the kernel's USER_HZ, the unit of /proc CPU times on
// every Linux architecture Go supports.
const clockTick = 100

// cpuSeconds reads a process's user plus system CPU time.
func cpuSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTick
}

// stealTicks returns the host's cumulative CPU time and the part of it
// stolen by the hypervisor, from /proc/stat. Their deltas over a run say
// how much CPU other tenants took from it.
func stealTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user … steal; guest time is already in user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

// compareResults prints the median of each metric over two sets of
// result files, refusing sets measured on different hosts.
func compareResults(w io.Writer, a, b []string) error {
	load := func(paths []string) ([]savedResult, error) {
		var out []savedResult
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var r savedResult
			if err := json.Unmarshal(raw, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, r)
		}
		return out, nil
	}
	ra, err := load(a)
	if err != nil {
		return err
	}
	rb, err := load(b)
	if err != nil {
		return err
	}
	if len(ra) == 0 || len(rb) == 0 {
		return fmt.Errorf("compare needs results on both sides")
	}
	for _, r := range append(ra[1:], rb...) {
		if !r.Host.sameHost(ra[0].Host) {
			return fmt.Errorf("refusing to compare results from different hosts: %+v vs %+v", ra[0].Host, r.Host)
		}
	}
	type key struct{ workload, metric string }
	va, vb := map[key][]float64{}, map[key][]float64{}
	collect := func(rs []savedResult, into map[key][]float64) {
		for _, r := range rs {
			for name, v := range r.All {
				k := key{r.Workload, name}
				into[k] = append(into[k], v)
			}
		}
	}
	collect(ra, va)
	collect(rb, vb)
	var keys []key
	for k := range va {
		if _, ok := vb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-16s %-36s %14s %8s %14s %8s %9s\n", "workload", "metric", "median A", "IQR/med", "median B", "IQR/med", "B vs A")
	for _, k := range keys {
		xa, xb := va[k], vb[k]
		ma, mb := median(xa), median(xb)
		fmt.Fprintf(w, "%-16s %-36s %14.6g %7.1f%% %14.6g %7.1f%% %+8.1f%%\n",
			k.workload, k.metric, ma, 100*spread(xa), mb, 100*spread(xb), 100*(mb-ma)/ma)
	}
	return nil
}
