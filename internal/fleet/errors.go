package fleet

import "errors"

// Validation and operation sentinels. Callers branch on these with errors.Is
// instead of matching message strings; every fleet API error wraps exactly
// one (the loadgen.Options idiom), or core.ErrPolicyDigest for a registry
// recipe whose retrained policy is not the published one. The admin HTTP
// layer maps them onto status codes and structured error bodies.
var (
	// ErrBadOptions marks an invalid fleet Options field.
	ErrBadOptions = errors.New("fleet: invalid options")
	// ErrBadShards marks an invalid shard count.
	ErrBadShards = errors.New("fleet: invalid shard count")
	// ErrBadSpec marks an invalid TenantSpec.
	ErrBadSpec = errors.New("fleet: invalid tenant spec")
	// ErrDuplicateTenant marks admission of a name the fleet already holds.
	ErrDuplicateTenant = errors.New("fleet: tenant already admitted")
	// ErrUnknownTenant marks an operation on a name the fleet does not hold.
	ErrUnknownTenant = errors.New("fleet: unknown tenant")
	// ErrBadTransition marks a lifecycle move the tenant FSM forbids.
	ErrBadTransition = errors.New("fleet: illegal lifecycle transition")
	// ErrNoPolicy marks a context key with no stored policy.
	ErrNoPolicy = errors.New("fleet: no policy for context")
	// ErrCheckpointsDisabled marks a checkpoint request on a fleet built
	// without a checkpoint directory.
	ErrCheckpointsDisabled = errors.New("fleet: checkpointing disabled")
)
