// Package groups implements a distributed multicast group-membership
// service in the style the paper's §2 assumes exists (refs [25, 20]): a
// geographic-hash-table rendezvous. A group name hashes to a location in
// the field; the node closest to that location (the group's *home*) stores
// the member list. Joins, leaves and lookups are routed geographically —
// greedy with perimeter recovery — and their message costs are accounted,
// so applications can weigh membership-maintenance traffic against data
// traffic.
//
// The paper itself leaves group management out of scope ("we do not focus
// on the problem of how to establish and maintain multicast groups"); this
// package closes that gap for the library's example applications.
package groups

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
)

// Metrics counts the control-plane cost of membership operations.
type Metrics struct {
	// Messages is the total number of point-to-point control transmissions.
	Messages int
	// Operations counts Join/Leave/Members calls served.
	Operations int
	// Expirations counts leases pruned at their home node after expiring
	// without a refresh (soft-state decay, not explicit leaves).
	Expirations int
}

// Service is the membership service over one deployed network. It is a
// simulation-side object: per-node member tables are kept centrally but
// indexed by the home node that would own them in a real deployment.
type Service struct {
	nw *network.Network
	pg *planar.Graph
	// tables[home][group] maps member -> lease expiry (virtual seconds;
	// +Inf when the service runs without leases).
	tables  map[int]map[string]map[int]float64
	version map[string]uint64
	metrics Metrics
	maxHops int
	leaseS  float64
}

// Option configures the service.
type Option func(*Service)

// WithMaxHops bounds each control message's route length (default 100).
// Control messages must always have a finite budget — the routing loop in
// route() is bounded by it — so non-positive values are a programming error
// and panic rather than silently disabling the bound.
func WithMaxHops(n int) Option {
	if n <= 0 {
		panic(fmt.Sprintf("groups: WithMaxHops(%d): hop budget must be positive", n))
	}
	return func(s *Service) { s.maxHops = n }
}

// WithLease makes memberships soft-state: a join is valid for the given
// number of virtual seconds and must be refreshed (re-joined) before it
// expires — the classical soft-state design of distributed group services
// (paper ref [20]). Zero or negative disables leases.
func WithLease(seconds float64) Option { return func(s *Service) { s.leaseS = seconds } }

// New creates a membership service over nw using pg for void recovery.
func New(nw *network.Network, pg *planar.Graph, opts ...Option) *Service {
	s := &Service{
		nw:      nw,
		pg:      pg,
		tables:  make(map[int]map[string]map[int]float64),
		version: make(map[string]uint64),
		maxHops: 100,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// expiryFrom computes a join's expiry given the current virtual time.
func (s *Service) expiryFrom(now float64) float64 {
	if s.leaseS <= 0 {
		return math.Inf(1)
	}
	return now + s.leaseS
}

// Service errors.
var (
	ErrUnroutable = errors.New("groups: control message could not reach the group home")
	ErrNoMembers  = errors.New("groups: group has no members")
)

// HashPoint maps a group name to its rendezvous location in the field.
func (s *Service) HashPoint(group string) geom.Point {
	h := fnv.New64a()
	_, _ = h.Write([]byte(group))
	v := h.Sum64()
	// Split the 64-bit hash into two 32-bit coordinates.
	x := float64(uint32(v)) / float64(1<<32) * s.nw.Width()
	y := float64(uint32(v>>32)) / float64(1<<32) * s.nw.Height()
	return geom.Pt(x, y)
}

// Home returns the node that owns the group's member table: the node
// closest to the group's hash location.
func (s *Service) Home(group string) int {
	return s.nw.ClosestNode(s.HashPoint(group))
}

// route walks greedily from src toward target with perimeter recovery and
// returns the hop count to reach the node closest to target, or an error if
// the hop budget runs out first.
func (s *Service) route(src int, target geom.Point) (hops int, err error) {
	home := s.nw.ClosestNode(target)
	cur := src
	for hops = 0; hops < s.maxHops; {
		if cur == home {
			return hops, nil
		}
		next := s.greedyToward(cur, target)
		if next != -1 {
			cur = next
			hops++
			continue
		}
		// Local minimum: perimeter around the void until progress resumes.
		path, recovered := planar.Route(s.pg, cur, target, s.maxHops-hops)
		hops += len(path) - 1
		if !recovered {
			return hops, fmt.Errorf("%w: stuck at node %d", ErrUnroutable, cur)
		}
		cur = path[len(path)-1]
	}
	if cur == home {
		return hops, nil
	}
	return hops, fmt.Errorf("%w: hop budget exhausted", ErrUnroutable)
}

func (s *Service) greedyToward(cur int, target geom.Point) int {
	best, bestD := -1, s.nw.Pos(cur).Dist(target)
	for _, n := range s.nw.Neighbors(cur) {
		if d := s.nw.Pos(int(n)).Dist(target); d < bestD {
			best, bestD = int(n), d
		}
	}
	return best
}

// Join registers member in the group, routing the request to the group's
// home node. Equivalent to JoinAt at time 0 (only meaningful without
// leases).
func (s *Service) Join(member int, group string) error {
	return s.JoinAt(member, group, 0)
}

// JoinAt registers member at virtual time now; under WithLease the entry
// expires at now+lease unless re-joined (refreshed).
func (s *Service) JoinAt(member int, group string, now float64) error {
	hops, err := s.route(member, s.HashPoint(group))
	s.metrics.Messages += hops
	s.metrics.Operations++
	if err != nil {
		return fmt.Errorf("join %q: %w", group, err)
	}
	home := s.Home(group)
	if s.tables[home] == nil {
		s.tables[home] = make(map[string]map[int]float64)
	}
	if s.tables[home][group] == nil {
		s.tables[home][group] = make(map[int]float64)
	}
	if old, ok := s.tables[home][group][member]; !ok || old <= now {
		// Fresh join (or revival of an expired entry) bumps the version;
		// a lease refresh does not.
		s.version[group]++
	}
	s.tables[home][group][member] = s.expiryFrom(now)
	return nil
}

// Leave removes member from the group.
func (s *Service) Leave(member int, group string) error {
	hops, err := s.route(member, s.HashPoint(group))
	s.metrics.Messages += hops
	s.metrics.Operations++
	if err != nil {
		return fmt.Errorf("leave %q: %w", group, err)
	}
	home := s.Home(group)
	if set := s.tables[home][group]; set != nil {
		if _, ok := set[member]; ok {
			delete(set, member)
			s.version[group]++
		}
	}
	s.purgeIfEmpty(home, group)
	return nil
}

// purgeIfEmpty drops the group's table at its home node once the last entry
// is gone, and the home's table map once its last group is gone — dead
// groups must not linger in memory for the lifetime of the service.
func (s *Service) purgeIfEmpty(home int, group string) {
	groupTables := s.tables[home]
	if groupTables == nil {
		return
	}
	if set, ok := groupTables[group]; ok && len(set) == 0 {
		delete(groupTables, group)
	}
	if len(groupTables) == 0 {
		delete(s.tables, home)
	}
}

// Members resolves the group's member list on behalf of requester.
// Equivalent to MembersAt at time 0.
func (s *Service) Members(requester int, group string) ([]int, error) {
	return s.MembersAt(requester, group, 0)
}

// MembersAt resolves the member list as of virtual time now, pruning
// expired leases: the query routes to the home node and the reply routes
// back. Returns the sorted member IDs.
func (s *Service) MembersAt(requester int, group string, now float64) ([]int, error) {
	target := s.HashPoint(group)
	hops, err := s.route(requester, target)
	s.metrics.Messages += hops
	s.metrics.Operations++
	if err != nil {
		return nil, fmt.Errorf("lookup %q: %w", group, err)
	}
	home := s.Home(group)
	set := s.tables[home][group]
	out := make([]int, 0, len(set))
	for m, expiry := range set {
		if expiry <= now {
			delete(set, m) // lazy lease expiry at the home node
			s.metrics.Expirations++
			continue
		}
		out = append(out, m)
	}
	s.purgeIfEmpty(home, group)
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoMembers, group)
	}
	// Reply path home → requester.
	back, err := s.route(home, s.nw.Pos(requester))
	s.metrics.Messages += back
	if err != nil {
		return nil, fmt.Errorf("reply %q: %w", group, err)
	}
	sort.Ints(out)
	return out, nil
}

// Version returns the group's membership version (bumps on every effective
// join/leave); 0 for unknown groups.
func (s *Service) Version(group string) uint64 { return s.version[group] }

// Metrics returns a snapshot of the accumulated control-plane costs.
func (s *Service) Metrics() Metrics { return s.metrics }
