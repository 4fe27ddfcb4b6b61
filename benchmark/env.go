package main

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// Env stamps a result with the machine and build it was measured on.
type Env struct {
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Seed        int64   `json:"seed"`
	SleepOverUS float64 `json:"sleep_overshoot_us"`
}

func stamp(seed int64) Env {
	return Env{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      commit(),
		Seed:        seed,
		SleepOverUS: sleepOvershoot(),
	}
}

// sleepOvershoot is the median amount by which a 100µs sleep oversleeps,
// the reason the load is a closed loop rather than a timed schedule.
func sleepOvershoot() float64 {
	const want = 100 * time.Microsecond
	var over []float64
	for i := 0; i < 21; i++ {
		t := time.Now()
		time.Sleep(want)
		over = append(over, float64((time.Since(t)-want).Nanoseconds())/1e3)
	}
	slices.Sort(over)
	return over[len(over)/2]
}

// commit reads the checked-out commit from .git when there is one; a
// source checkout without git metadata reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	b, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
