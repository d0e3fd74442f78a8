package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/rac-project/rac/internal/atomicfile"
	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/parallel"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/vmenv"
)

// PolicyRegistry is the fleet's shared, disk-backed catalogue of initial
// policies keyed by system context (traffic mix, client population, VM
// level). One tenant trains a policy for its context; every later tenant
// admitted into a matching context warm-starts from that policy's Q-table
// instead of cold initialization — the SQLR observation that learned state
// pays off when it is retained and reused across instances.
//
// A fleet policy is the output of a cheap, deterministic computation
// (Algorithm 2 on the analytic surface), so the registry stores one small
// recipe file per context key, written atomically. A policy not in memory, as
// after a restart, is retrained from its recipe (core.Recipe) and checked
// against the recipe's digest. All methods are safe for concurrent use.
type PolicyRegistry struct {
	dir   string
	space *config.Space
	// pool trains policies; no policy byte depends on it. Training passes no
	// memo: it solves each coarse grouped point once, and tenants do not
	// measure those points (0 extra hits over 558 lookups in
	// TestFleetAnalyticMemoByteIdentical), so sharing the fleet's would only
	// add keys and count training as tenant lookups.
	pool parallel.Options

	mu sync.Mutex
	// policies resolves each key read or published in this process once: a
	// Put's policy, or one retrain of the recipe on disk that every
	// concurrent Get of the key waits for.
	policies map[string]*policyOnce
}

type policyOnce struct{ get func() (*core.Policy, error) }

// recipeFile is a registry file: the recipe a policy was trained from and
// core.Policy.Digest of the policy it trained when published.
type recipeFile struct {
	core.Recipe
	Digest string `json:"digest"`
}

// loadRecipe decodes one recipe document, which must be the whole input, and
// checks every field that needs no training run to check.
func loadRecipe(r io.Reader) (recipeFile, error) {
	var rec recipeFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rec); err != nil {
		return recipeFile{}, fmt.Errorf("decode recipe: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return recipeFile{}, errors.New("decode recipe: data after the document")
	}
	if _, err := rec.Context(); err != nil {
		return recipeFile{}, fmt.Errorf("recipe context: %w", err)
	}
	if d, err := hex.DecodeString(rec.Digest); err != nil || len(d) != sha256.Size {
		return recipeFile{}, fmt.Errorf("recipe digest %q is not a hex SHA-256", rec.Digest)
	}
	return rec, nil
}

// NewPolicyRegistry roots a registry at dir (created if missing). Policies
// are trained over space on a pool of procs workers (core.InitOptions.Procs)
// reporting to tel, which may be nil.
func NewPolicyRegistry(dir string, space *config.Space, procs int, tel *telemetry.Registry) (*PolicyRegistry, error) {
	if dir == "" {
		return nil, errors.New("fleet: empty registry directory")
	}
	if space == nil {
		return nil, errors.New("fleet: nil space")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: registry dir: %w", err)
	}
	pool := parallel.Options{Procs: procs, Telemetry: tel}
	return &PolicyRegistry{dir: dir, space: space, pool: pool, policies: make(map[string]*policyOnce)}, nil
}

const recipeSuffix = ".recipe.json"

// path names the recipe file for a context key.
func (r *PolicyRegistry) path(key string) string {
	return filepath.Join(r.dir, sanitizeName(key)+recipeSuffix)
}

// Get returns the policy stored under key, or (nil, nil) when the context has
// no recipe. A key not in memory is retrained from its recipe outside the
// lock, once for every Get waiting on it, so Gets of other keys never wait.
// A retrained policy whose digest is not the recipe's is a
// core.ErrPolicyDigest error, never a different policy. Neither an error nor
// a missing recipe is remembered.
func (r *PolicyRegistry) Get(key string) (*core.Policy, error) {
	r.mu.Lock()
	once, ok := r.policies[key]
	if !ok {
		once = &policyOnce{sync.OnceValues(func() (*core.Policy, error) { return r.retrain(key) })}
		r.policies[key] = once
	}
	r.mu.Unlock()
	p, err := once.get()
	if p == nil {
		r.mu.Lock()
		if r.policies[key] == once {
			delete(r.policies, key)
		}
		r.mu.Unlock()
	}
	return p, err
}

// retrain reads key's recipe and trains it, checking the digest.
func (r *PolicyRegistry) retrain(key string) (*core.Policy, error) {
	f, err := os.Open(r.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: registry read %q: %w", key, err)
	}
	rec, err := loadRecipe(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("fleet: registry %q: %w", key, err)
	}
	p, err := rec.Train(key, r.space, r.pool, nil)
	if err != nil {
		return nil, fmt.Errorf("fleet: registry retrain %q: %w", key, err)
	}
	if got := p.Digest(); got != rec.Digest {
		return nil, fmt.Errorf("%w: registry %q: recipe %s, retrained %s", core.ErrPolicyDigest, key, rec.Digest, got)
	}
	return p, nil
}

// Put trains the policy rec describes, publishes rec under key with that
// policy's digest, atomically replacing any previous recipe for the context,
// and returns the policy. Training and the temporary file happen without the
// lock, so Gets of other contexts never wait on them; the lock covers only
// the rename and the in-memory update, so after concurrent Puts of one key
// the file and memory hold the same, last renamed, recipe. A recipe file
// holds no sampling backend, so a recipe that samples the simulator is
// refused.
func (r *PolicyRegistry) Put(key string, rec core.Recipe) (*core.Policy, error) {
	if key == "" {
		return nil, errors.New("fleet: empty registry key")
	}
	if rec.Sampling != (core.Sampling{}) {
		return nil, fmt.Errorf("fleet: registry %q: a recipe file holds analytic trainings only", key)
	}
	p, err := rec.Train(key, r.space, r.pool, nil)
	if err != nil {
		return nil, fmt.Errorf("fleet: registry train %q: %w", key, err)
	}
	tmp, err := atomicfile.WriteTemp(r.dir, "recipe-*.tmp", func(w io.Writer) error {
		return json.NewEncoder(w).Encode(recipeFile{rec, p.Digest()})
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: registry save %q: %w", key, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.Rename(tmp, r.path(key)); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("fleet: registry rename: %w", err)
	}
	r.policies[key] = &policyOnce{func() (*core.Policy, error) { return p, nil }}
	return p, nil
}

// parseContextKey decomposes a ContextKey back into its context. Keys that
// do not follow the encoding "mix-clients@LevelName" (foreign files in the
// registry directory) report ok=false and are skipped by Nearest.
func parseContextKey(key string) (system.Context, bool) {
	at := strings.LastIndexByte(key, '@')
	dash := strings.LastIndexByte(key[:max(at, 0)], '-')
	if at < 0 || dash < 0 {
		return system.Context{}, false
	}
	clients, err := strconv.Atoi(key[dash+1 : at])
	ctx, cerr := core.Recipe{Mix: key[:dash], Clients: clients, Level: key[at+1:]}.Context()
	return ctx, err == nil && cerr == nil
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
	abs := func(n int) int { return max(n, -n) }
	var bestKey string
	var best []int
	for _, key := range r.Keys() { // sorted, so a tie keeps the smaller key
		c, ok := parseContextKey(key)
		if !ok || key == exclude {
			continue
		}
		mixMiss := 0
		if c.Workload.Mix != ctx.Workload.Mix {
			mixMiss = 1
		}
		rank := []int{mixMiss, abs(vmenv.Ordinal(c.Level) - vmenv.Ordinal(ctx.Level)),
			abs(c.Workload.Clients - ctx.Workload.Clients)}
		if best == nil || slices.Compare(rank, best) < 0 {
			bestKey, best = key, rank
		}
	}
	if best == nil {
		return nil, "", nil
	}
	p, err := r.Get(bestKey)
	if err != nil {
		return nil, "", err
	}
	return p, bestKey, nil
}

// Keys lists the context keys with stored recipes, sorted. File names are
// sanitized on write, so keys containing exotic characters list in their
// sanitized form.
func (r *PolicyRegistry) Keys() []string {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if key, ok := strings.CutSuffix(e.Name(), recipeSuffix); ok && !e.IsDir() {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}
