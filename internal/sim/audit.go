package sim

import "fmt"

// AuditConfig parameterizes the invariant oracle.
type AuditConfig struct {
	// MaxHops is the engine's per-packet hop budget (Engine.MaxHops());
	// delivered hop counts must not exceed it. 0 disables the bound.
	MaxHops int
	// AllowInvalidSends tolerates InvalidSends > 0: deliberately corrupted
	// neighbor tables (ghost entries) legitimately make protocols address
	// out-of-range nodes, and the engine bills those as invalid-send drops.
	// Zero-corruption audits must leave this false.
	AllowInvalidSends bool
	// AllowDuplicates tolerates DuplicateDeliveries > 0: redundant-copy
	// protocols (routing.FlagConcurrent, e.g. MCFR's two concurrent face
	// directions) deliver a destination via whichever copy arrives first and
	// count later arrivals as duplicates. The engine's deferred settlement
	// keeps the conservation invariant exact for them, so everything else in
	// the audit still applies.
	AllowDuplicates bool
}

// AuditTask checks a finished task's metrics against the engine's accounting
// invariants. It returns the first violation found, or nil.
//
// The invariants hold for partition-discipline protocols — each destination
// rides exactly one live packet copy at any time (GMP, GMPnr, LGS, LGK, PBM,
// SMT, GRD). Geocast's region flood violates them by design (duplicate
// deliveries are its redundancy mechanism) and must not be audited.
//
//   - Conservation: every originated destination is either delivered or
//     aboard exactly one dropped copy — DestCount == len(Delivered) +
//     DroppedDests(), itemized per drop reason.
//   - Per-destination conservation: no destination is both delivered and
//     dropped, and for every reason but ReasonLeft the destinations whose
//     first drop it was (Dropped) number exactly DestDropsByReason.
//   - No duplicate deliveries.
//   - Bounded hops: no delivery beyond the hop budget, and no negative hop
//     count.
//   - Counter sanity: no negative counters; retransmissions and ACKs only
//     with ARQ traffic; per-reason destination drops imply a copy drop of
//     the same reason.
func AuditTask(m *TaskMetrics, cfg AuditConfig) error {
	if len(m.Delivered) > m.DestCount {
		return fmt.Errorf("delivered %d destinations of %d originated",
			len(m.Delivered), m.DestCount)
	}
	if got := len(m.Delivered) + m.DroppedDests(); got != m.DestCount {
		return fmt.Errorf("conservation violated: %d delivered + %d dropped != %d originated (drops by reason: %v)",
			len(m.Delivered), m.DroppedDests(), m.DestCount, m.DestDropsByReason)
	}
	if !cfg.AllowDuplicates && m.DuplicateDeliveries != 0 {
		return fmt.Errorf("%d duplicate deliveries (partition discipline violated)",
			m.DuplicateDeliveries)
	}
	if m.DuplicateDeliveries < 0 {
		return fmt.Errorf("negative duplicate-delivery counter %d", m.DuplicateDeliveries)
	}
	for d, h := range m.Delivered {
		if h < 0 {
			return fmt.Errorf("destination %d delivered at negative hop count %d", d, h)
		}
		if cfg.MaxHops > 0 && h > cfg.MaxHops {
			return fmt.Errorf("destination %d delivered at hop %d beyond budget %d",
				d, h, cfg.MaxHops)
		}
	}
	var firstDrops [NumDropReasons]int
	for d, r := range m.Dropped {
		if _, ok := m.Delivered[d]; ok {
			return fmt.Errorf("destination %d both delivered and dropped (%v)", d, r)
		}
		firstDrops[r]++
	}
	for r := DropReason(0); r < NumDropReasons; r++ {
		if r != ReasonLeft && firstDrops[r] != m.DestDropsByReason[r] {
			return fmt.Errorf("%d destinations first dropped as %v, %d billed",
				firstDrops[r], r, m.DestDropsByReason[r])
		}
		if m.DropsByReason[r] < 0 || m.DestDropsByReason[r] < 0 {
			return fmt.Errorf("negative drop counter for %v", r)
		}
		if m.DestDropsByReason[r] > 0 && m.DropsByReason[r] == 0 {
			return fmt.Errorf("%d destinations dropped as %v without a copy drop",
				m.DestDropsByReason[r], r)
		}
	}
	if m.Transmissions < 0 || m.Retransmissions < 0 || m.Acks < 0 ||
		m.LinkFailures < 0 || m.InvalidSends < 0 {
		return fmt.Errorf("negative traffic counter: %+v", m)
	}
	if m.JoinsSpliced < 0 || m.JoinsMissed < 0 {
		return fmt.Errorf("negative churn counter: spliced %d, missed %d",
			m.JoinsSpliced, m.JoinsMissed)
	}
	if m.JoinsSpliced > m.DestCount {
		return fmt.Errorf("joins spliced %d exceed destination count %d",
			m.JoinsSpliced, m.DestCount)
	}
	if m.Retransmissions > m.Transmissions {
		return fmt.Errorf("retransmissions %d exceed transmissions %d",
			m.Retransmissions, m.Transmissions)
	}
	if !cfg.AllowInvalidSends && m.InvalidSends != 0 {
		return fmt.Errorf("%d invalid sends (protocol addressed out-of-range nodes)",
			m.InvalidSends)
	}
	if m.EnergyJ < 0 {
		return fmt.Errorf("negative energy %v", m.EnergyJ)
	}
	return nil
}
