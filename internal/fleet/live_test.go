package fleet

import (
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/rac-project/rac/internal/system"
)

// listening returns how many TCP sockets this process is listening on: the
// socket inodes behind /proc/self/fd that the kernel's TCP tables list in
// LISTEN state.
func listening(t *testing.T) int {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("counts listeners through /proc")
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	owned := make(map[string]bool)
	for _, fd := range fds {
		link, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if inode, ok := strings.CutPrefix(link, "socket:["); err == nil && ok {
			owned[strings.TrimSuffix(inode, "]")] = true
		}
	}
	n := 0
	for _, table := range []string{"/proc/self/net/tcp", "/proc/self/net/tcp6"} {
		buf, err := os.ReadFile(table)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(buf), "\n") {
			if f := strings.Fields(line); len(f) > 9 && f[3] == "0A" && owned[f[9]] {
				n++
			}
		}
	}
	return n
}

// TestFleetLiveTenants admits "live" tenants — one bare, one under the
// capacity decorator — and runs two rounds over real HTTP. Shutdown must free
// both servers' addresses, and admissions that fail must leave no listener.
func TestFleetLiveTenants(t *testing.T) {
	dir := t.TempDir()
	f, err := New(Options{Seed: 5, RegistryDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	base := listening(t)

	// An unknown scenario fails before anything is built; a corrupt registry
	// policy for the tenant's context fails after its server started.
	bad := TenantSpec{Name: "live-bad", Backend: "live", Context: "context-5", MeasureSeconds: 0.2}
	bad.Scenario = "no-such-scenario"
	if _, err := f.Admit(bad); err == nil {
		t.Fatal("unknown scenario admitted")
	}
	bad.Scenario = ""
	ctx5, err := system.ContextByName(bad.Context)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := f.registry.path(ContextKey(ctx5))
	if err := os.WriteFile(corrupt, []byte("not a policy"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Admit(bad); err == nil {
		t.Fatal("tenant over a corrupt registry policy admitted")
	}
	if err := os.Remove(corrupt); err != nil {
		t.Fatal(err)
	}
	if n := listening(t); n != base {
		t.Fatalf("failed admissions left %d listeners behind", n-base)
	}

	plain := TenantSpec{Name: "live", Backend: "live", Context: "context-4", MeasureSeconds: 0.2}
	elastic := plain
	elastic.Name, elastic.Capacity = "live-elastic", true
	var tenants []*Tenant
	for _, sp := range []TenantSpec{plain, elastic} {
		tn, err := f.Admit(sp)
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tn)
	}
	if tenants[1].Capacity() == nil {
		t.Fatal("live capacity tenant has no decorator")
	}
	if n := listening(t); n != base+2 {
		t.Fatalf("two live tenants hold %d listeners, want 2", n-base)
	}
	if _, err := f.Run(2); err != nil {
		t.Fatal(err)
	}
	for _, tn := range tenants {
		if st := tn.Status(); st.State != StateRunning || st.Interval != 2 {
			t.Fatalf("tenant %s: %s at interval %d (%s), want running at 2", st.Name, st.State, st.Interval, st.LastError)
		}
	}

	if err := f.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for _, tn := range tenants {
		ln, err := net.Listen("tcp", tn.built.Addr)
		if err != nil {
			t.Fatalf("tenant %s: server address still bound after Shutdown: %v", tn.Name(), err)
		}
		ln.Close()
	}
	if n := listening(t); n != base {
		t.Fatalf("Shutdown left %d listeners behind", n-base)
	}
}
