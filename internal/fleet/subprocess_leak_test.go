package fleet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// A member that starts but never reports ready must not leak: the spawn
// timeout path has to SIGKILL the half-started process, reap it (not
// even a zombie may remain), and close the captured log handle. The fake
// psnode below records its pid and sleeps without ever writing the ready
// file — the shape of a daemon wedged before its control agent binds.
func TestSpawnTimeoutReapsHalfStartedMember(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("inspects /proc for leaked descriptors")
	}
	dir := t.TempDir()
	pidFile := filepath.Join(dir, "child.pid")
	fake := filepath.Join(dir, "fake-psnode")
	script := fmt.Sprintf("#!/bin/sh\necho $$ > %q\nexec sleep 3600\n", pidFile)
	if err := os.WriteFile(fake, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}

	fleetDir := filepath.Join(dir, "fleet")
	cluster, err := newSubprocess(Config{
		Psnode:       fake,
		Dir:          fleetDir,
		SpawnTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	m, err := cluster.Spawn(nil)
	if err == nil {
		t.Fatalf("spawn of a never-ready member succeeded: %v", m)
	}
	if !strings.Contains(err.Error(), "not ready after") {
		t.Fatalf("unexpected spawn error: %v", err)
	}

	raw, err := os.ReadFile(pidFile)
	if err != nil {
		t.Fatalf("fake psnode never recorded its pid: %v", err)
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("pid file %q: %v", raw, err)
	}
	// Kill and Wait both ran before Spawn returned, so the pid must be
	// fully reaped — a zombie would still accept signal 0.
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Fatalf("child %d still exists after spawn timeout (kill 0 = %v)", pid, err)
	}

	// The member's log was captured into an *os.File the member struct
	// never surfaced; the error path must have closed it.
	logPath := filepath.Join(fleetDir, "node00", "psnode.log")
	if _, err := os.Stat(logPath); err != nil {
		t.Fatalf("expected member log at %s: %v", logPath, err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && target == logPath {
			t.Fatalf("log handle leaked: fd %s still open on %s", fd.Name(), target)
		}
	}
}
