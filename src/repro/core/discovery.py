"""The discovery phase (paper §4.1, §4.2).

Every speculative invocation of a convertible region doubles as a
discovery phase: CLEAR tracks the cachelines accessed (into the ALT, up
to its capacity), watches for indirections via the register indirection
bits, and — crucially — on a conflict does *not* abort immediately but
continues in **failed mode** until the region ends or the speculative
resources run out, so that it can make an informed retry decision.

With HTM as the baseline (§4.2) speculation extends beyond the ROB and
the store queue becomes the limiting resource for failed-mode discovery;
stores are kept in the SQ and loads are flagged non-aborting.
"""

from repro.core.alt import AddressToLockTable, AltOverflow


class DiscoveryAssessment:
    """The hierarchical assessment made at the end of discovery (§4.1).

    1. ``fits_window`` — the AR fit the speculative resources (SQ with
       HTM; plus the ALT tracking limit).
    2. ``lockable`` — the accessed cachelines can all be held locked in
       the private cache simultaneously (no over-full L1 set).
    3. ``immutable`` — no indirection and no branch dependent on values
       accessed inside the AR.
    """

    __slots__ = ("fits_window", "lockable", "immutable", "sq_overflow",
                 "alt_overflow", "footprint")

    def __init__(self, fits_window, lockable, immutable, sq_overflow,
                 alt_overflow, footprint):
        self.fits_window = fits_window
        self.lockable = lockable
        self.immutable = immutable
        self.sq_overflow = sq_overflow
        self.alt_overflow = alt_overflow
        self.footprint = footprint

    def __repr__(self):
        return (
            "DiscoveryAssessment(fits_window={}, lockable={}, immutable={})".format(
                self.fits_window, self.lockable, self.immutable
            )
        )


class DiscoveryState:
    """Per-attempt tracking of footprint, indirection, and resource use."""

    def __init__(self, region_id, dir_set_of, can_coreside,
                 sq_capacity=72, lq_capacity=128, alt_entries=32):
        self.region_id = region_id
        self._dir_set_of = dir_set_of
        self._can_coreside = can_coreside
        self.sq_capacity = sq_capacity
        self.lq_capacity = lq_capacity
        self.alt = AddressToLockTable(alt_entries)
        self.failed = False
        self.indirection_seen = False
        self.sq_overflow = False
        self.alt_overflow = False
        self.load_count = 0
        self.store_count = 0
        self.op_count = 0

    # -- event hooks called by the executor ---------------------------------

    def enter_failed_mode(self):
        """A conflict arrived; keep executing to finish learning (§4.1)."""
        self.failed = True

    @property
    def exhausted(self):
        """Discovery can learn nothing more; a failed AR aborts now."""
        return self.sq_overflow or self.alt_overflow

    def on_load(self, line, address_tainted):
        """Track a load retiring inside the AR."""
        self.op_count += 1
        self.load_count += 1
        if address_tainted:
            self.indirection_seen = True
        self._track(line, written=False)

    def on_store(self, line, address_tainted):
        """Track a store entering the SQ inside the AR."""
        self.op_count += 1
        self.store_count += 1
        if address_tainted:
            self.indirection_seen = True
        if self.store_count > self.sq_capacity:
            self.sq_overflow = True
        self._track(line, written=True)

    def on_branch(self, condition_tainted):
        """Track a branch retiring inside the AR.

        A branch whose condition depends on an AR-loaded value can steer
        execution to a different footprint, so it poisons immutability
        exactly like an address indirection (paper §3).
        """
        self.op_count += 1
        if condition_tainted:
            self.indirection_seen = True

    def on_compute(self, op_count=1):
        """Track non-memory work (for window accounting only)."""
        self.op_count += op_count

    def _track(self, line, written):
        if self.alt_overflow:
            return
        entry = self.alt.entry(line)
        if entry is not None:
            # Already tracked: only a write changes the entry, and its
            # directory set is known.
            if written:
                entry.needs_locking = True
            return
        try:
            self.alt.record_access(line, self._dir_set_of(line), written)
        except AltOverflow:
            self.alt_overflow = True

    # -- final assessment -----------------------------------------------------

    def assess(self):
        """The informed decision input produced at region end (§4.1)."""
        fits_window = not self.sq_overflow and not self.alt_overflow
        footprint = self.alt.all_lines()
        lockable = fits_window and self._can_coreside(footprint)
        immutable = not self.indirection_seen
        return DiscoveryAssessment(
            fits_window=fits_window,
            lockable=lockable,
            immutable=immutable,
            sq_overflow=self.sq_overflow,
            alt_overflow=self.alt_overflow,
            footprint=footprint,
        )
