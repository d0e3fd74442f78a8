package fleet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/rac-project/rac/internal/atomicfile"
	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// PolicyRegistry is the fleet's shared, disk-backed catalogue of initial
// policies keyed by system context (traffic mix, client population, VM
// level). One tenant trains a policy for its context; every later tenant
// admitted into a matching context warm-starts from that policy's Q-table
// instead of cold initialization — the SQLR observation that learned state
// pays off when it is retained and reused across instances.
//
// Policies are stored one file per context key (core.Policy.Save JSON),
// written atomically, and cached in memory after first load. All methods are
// safe for concurrent use.
type PolicyRegistry struct {
	dir   string
	space *config.Space

	mu    sync.Mutex
	cache map[string]*core.Policy
}

// NewPolicyRegistry roots a registry at dir (created if missing). Loaded
// policies are bound to space, which must structurally match the space they
// were trained on.
func NewPolicyRegistry(dir string, space *config.Space) (*PolicyRegistry, error) {
	if dir == "" {
		return nil, errors.New("fleet: empty registry directory")
	}
	if space == nil {
		return nil, errors.New("fleet: nil space")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: registry dir: %w", err)
	}
	return &PolicyRegistry{dir: dir, space: space, cache: make(map[string]*core.Policy)}, nil
}

// Dir returns the registry's root directory.
func (r *PolicyRegistry) Dir() string { return r.dir }

// path names the policy file for a context key.
func (r *PolicyRegistry) path(key string) string {
	return filepath.Join(r.dir, sanitizeName(key)+".policy.json")
}

// Get returns the policy stored under key, or (nil, nil) when the context has
// no trained policy yet.
func (r *PolicyRegistry) Get(key string) (*core.Policy, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.cache[key]; ok {
		return p, nil
	}
	f, err := os.Open(r.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: registry read %q: %w", key, err)
	}
	defer f.Close()
	p, err := core.LoadPolicy(f, r.space)
	if err != nil {
		return nil, fmt.Errorf("fleet: registry policy %q: %w", key, err)
	}
	r.cache[key] = p
	return p, nil
}

// Put stores p under key, atomically replacing any previous policy for the
// same context. The policy is encoded into a temporary file without the
// lock, so Gets of other contexts never wait on it; the lock covers only the
// rename and the cache update, so after concurrent Puts of one key the file
// and the cache hold the same, last renamed, policy.
func (r *PolicyRegistry) Put(key string, p *core.Policy) error {
	if key == "" {
		return errors.New("fleet: empty registry key")
	}
	if p == nil {
		return errors.New("fleet: nil policy")
	}
	tmp, err := atomicfile.WriteTemp(r.dir, "policy-*.tmp", p.Save)
	if err != nil {
		return fmt.Errorf("fleet: registry save %q: %w", key, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.Rename(tmp, r.path(key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fleet: registry rename: %w", err)
	}
	r.cache[key] = p
	return nil
}

// keyCoords are a registry key's context coordinates, recovered from the
// ContextKey encoding "mix-clients@LevelName".
type keyCoords struct {
	mix     tpcw.Mix
	clients int
	ordinal int // vmenv capacity rank
}

// parseContextKey decomposes a ContextKey back into coordinates. Keys that do
// not follow the encoding (foreign files in the registry directory) report
// ok=false and are skipped by Nearest.
func parseContextKey(key string) (keyCoords, bool) {
	at := strings.LastIndexByte(key, '@')
	if at < 0 {
		return keyCoords{}, false
	}
	left, levelName := key[:at], key[at+1:]
	dash := strings.LastIndexByte(left, '-')
	if dash < 0 {
		return keyCoords{}, false
	}
	mix, err := tpcw.ParseMix(left[:dash])
	if err != nil {
		return keyCoords{}, false
	}
	clients, err := strconv.Atoi(left[dash+1:])
	if err != nil || clients <= 0 {
		return keyCoords{}, false
	}
	for _, l := range vmenv.Levels() {
		if l.Name == levelName {
			return keyCoords{mix: mix, clients: clients, ordinal: vmenv.Ordinal(l)}, true
		}
	}
	return keyCoords{}, false
}

// Nearest returns the stored policy whose context is closest to ctx, skipping
// the exact key (the caller already knows it has no policy). Distance is
// lexicographic: same traffic mix first, then the smallest VM-level ordinal
// gap, then the smallest client-population gap, with the sorted key as the
// deterministic tiebreak. Returns (nil, "", nil) when the registry holds no
// parseable candidate. The rationale is the paper's policy-reuse argument
// extended across neighboring contexts: an approximate Q-seed from an
// adjacent context beats cold initialization, and online learning corrects
// the residual error.
func (r *PolicyRegistry) Nearest(ctx system.Context, exclude string) (*core.Policy, string, error) {
	target := keyCoords{
		mix:     ctx.Workload.Mix,
		clients: ctx.Workload.Clients,
		ordinal: vmenv.Ordinal(ctx.Level),
	}
	type ranked struct {
		mixMiss int
		ordGap  int
		cliGap  int
		key     string
	}
	abs := func(n int) int {
		if n < 0 {
			return -n
		}
		return n
	}
	var best *ranked
	for _, key := range r.Keys() {
		if key == exclude {
			continue
		}
		c, ok := parseContextKey(key)
		if !ok {
			continue
		}
		cand := ranked{ordGap: abs(c.ordinal - target.ordinal), cliGap: abs(c.clients - target.clients), key: key}
		if c.mix != target.mix {
			cand.mixMiss = 1
		}
		if best == nil ||
			cand.mixMiss < best.mixMiss ||
			(cand.mixMiss == best.mixMiss && (cand.ordGap < best.ordGap ||
				(cand.ordGap == best.ordGap && (cand.cliGap < best.cliGap ||
					(cand.cliGap == best.cliGap && cand.key < best.key))))) {
			b := cand
			best = &b
		}
	}
	if best == nil {
		return nil, "", nil
	}
	p, err := r.Get(best.key)
	if err != nil {
		return nil, "", err
	}
	return p, best.key, nil
}

// Keys lists the context keys with stored policies, sorted. File names are
// sanitized on write, so keys containing exotic characters list in their
// sanitized form.
func (r *PolicyRegistry) Keys() []string {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".policy.json") {
			continue
		}
		out = append(out, strings.TrimSuffix(name, ".policy.json"))
	}
	sort.Strings(out)
	return out
}
