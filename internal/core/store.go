package core

import (
	"errors"
	"math"
	"sync"

	"github.com/rac-project/rac/internal/config"
)

// PolicyStore holds initial policies trained offline for different system
// contexts. When the online agent detects a context change it asks the store
// for the policy whose predicted performance best matches what it is
// currently measuring (paper §4.3: "switch to a most suitable initial policy
// according to the current performance").
//
// All methods are safe for concurrent use, so parallel per-context training
// can publish into one store while agents read from it. Match ties break
// toward the earliest added policy; publish in a deterministic order when
// reproducibility matters.
type PolicyStore struct {
	mu       sync.RWMutex
	policies []*Policy
}

// NewPolicyStore builds a store from the given policies.
func NewPolicyStore(policies ...*Policy) *PolicyStore {
	s := &PolicyStore{}
	for _, p := range policies {
		if p != nil {
			s.policies = append(s.policies, p)
		}
	}
	return s
}

// Add appends a policy.
func (s *PolicyStore) Add(p *Policy) {
	if p == nil {
		return
	}
	s.mu.Lock()
	s.policies = append(s.policies, p)
	s.mu.Unlock()
}

// Len returns the number of stored policies.
func (s *PolicyStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.policies)
}

// Match returns the policy whose predicted response time at cfg is closest
// to the measured value.
func (s *PolicyStore) Match(cfg config.Config, measuredRT float64) (*Policy, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.policies) == 0 {
		return nil, errors.New("core: empty policy store")
	}
	best := s.policies[0]
	bestDiff := math.Abs(best.PredictRT(cfg) - measuredRT)
	for _, p := range s.policies[1:] {
		if d := math.Abs(p.PredictRT(cfg) - measuredRT); d < bestDiff {
			best, bestDiff = p, d
		}
	}
	return best, nil
}

// ByName returns the stored policy with the given name, or nil.
func (s *PolicyStore) ByName(name string) *Policy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, p := range s.policies {
		if p.Name() == name {
			return p
		}
	}
	return nil
}
