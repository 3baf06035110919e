"""Calibrated CPU/IO cost constants for the simulated kernel.

All durations are **seconds of simulated CPU time**.  The defaults are
calibrated against the paper's testbed — a 2.8 GHz uniprocessor with
1 Gbps Ethernet running Linux 2.4.19 — such that the baseline
(monitoring off) reproduces the paper's first-order numbers:

* receive-side network processing ≈ 12.9 µs per 1500-byte frame, making
  an iperf stream CPU-limited at roughly 930 Mbps on a 1 Gbps link
  (paper §3.1);
* context switch ≈ 5 µs, syscall entry/exit ≈ 1 µs (era-typical
  lmbench-style numbers for that hardware);
* one NFS-sized disk operation ≈ 7–9 ms (seek + rotation + transfer).

Experiments may override any field; every consumer takes the model as a
constructor argument rather than reading globals.
"""

from dataclasses import dataclass, replace


@dataclass
class CostModel:
    """Per-operation simulated CPU/IO costs (seconds unless noted)."""

    # -- CPU scheduling ------------------------------------------------
    context_switch: float = 5e-6
    quantum: float = 10e-3
    wakeup: float = 1e-6

    # -- syscall layer -------------------------------------------------
    syscall_entry: float = 0.5e-6
    syscall_exit: float = 0.5e-6

    # -- network transmit path (per packet unless noted) ----------------
    net_tx_sock: float = 2.0e-6        # socket + TCP send processing
    net_tx_ip: float = 1.5e-6
    net_tx_driver: float = 1.5e-6
    net_tx_per_byte: float = 0.6e-9    # user->kernel copy + checksum

    # -- network receive path (per packet unless noted) -----------------
    net_rx_driver: float = 3.0e-6      # interrupt + driver
    net_rx_ip: float = 3.0e-6
    net_rx_transport: float = 4.0e-6   # TCP + socket demux
    net_rx_per_byte: float = 0.8e-9    # DMA-adjacent copies + checksum
    sock_enqueue: float = 1.0e-6
    sock_copy_per_byte: float = 0.5e-9  # kernel->user copy at recv

    # -- filesystem / block layer ---------------------------------------
    fs_op: float = 2.0e-6              # VFS dispatch per call
    page_copy: float = 2.0e-6          # copy one 4 KB page cache<->user
    blk_issue: float = 3.0e-6          # request queue handling per request

    # -- wire parameters -------------------------------------------------
    mtu: int = 1448                    # TCP payload per frame
    sock_buffer_bytes: int = 262144    # default receive window

    # -- disk geometry ----------------------------------------------------
    disk_seek: float = 4.0e-3
    disk_rotation: float = 3.0e-3      # average rotational latency
    disk_transfer_bps: float = 60e6    # bytes/second media rate

    # -- monitoring (SysProf) costs ---------------------------------------
    probe_fire: float = 0.20e-6        # Kprof event emission, subscriber present
    probe_disabled: float = 0.0        # compiled-out cost when off
    lpa_callback: float = 0.25e-6      # default per-event LPA callback cost
    record_encode: float = 0.5e-6      # PBIO-encode one record
    record_copy: float = 0.2e-6        # daemon copying one record out of a buffer
    buffer_switch: float = 2.0e-6      # per-CPU buffer swap w/ interrupts off
    # Fixed per-frame cost of the batched dissemination path (header pack
    # + channel dispatch).  A frame header is a handful of machine ops on
    # the calibrated 2.8 GHz testbed — negligible next to the per-record
    # marshal charged via ``record_encode`` — so the default is zero.
    # Raise it for framing-overhead ablations.
    frame_encode_base: float = 0.0
    # The text-encoding ablation ships repr() lines instead of PBIO
    # binary; producing them costs this many extra multiples of
    # ``record_encode`` per record (daemon._publish_frames charges
    # ``record_encode * (1 + text_encode_multiplier)`` in total).
    # Referenced from docs/performance.md ("Dissemination path").
    text_encode_multiplier: float = 9.0
    # Re-dial bookkeeping on the dissemination daemon's failure path:
    # tearing down + re-arming an endpoint after a failed publish, and
    # the cheap clock check deciding whether an endpoint is still inside
    # its backoff window.  Charged so recovery overhead stays emergent
    # in the CPU accounting rather than free.
    daemon_reconnect: float = 5e-6
    daemon_backoff_probe: float = 0.1e-6
    # Streaming diagnosis sketches: one log-bucket increment per observed
    # interaction metric (a log, a ceil, a hash update) and one GPA-side
    # merge of a whole serialized sketch row into the store.  Charged via
    # the ledger's "analyzer" category so drill-down overhead is emergent.
    sketch_update: float = 0.3e-6
    sketch_merge: float = 2.0e-6

    def override(self, **changes):
        """A copy of the model with the given fields replaced."""
        return replace(self, **changes)

    def rx_packet_cost(self, size, frames=1):
        """Total receive-side kernel CPU for one (possibly aggregated) packet."""
        per_frame = self.net_rx_driver + self.net_rx_ip + self.net_rx_transport
        return per_frame * frames + self.net_rx_per_byte * size + self.sock_enqueue

    def tx_packet_cost(self, size, frames=1):
        """Total transmit-side kernel CPU for one (possibly aggregated) packet."""
        per_frame = self.net_tx_sock + self.net_tx_ip + self.net_tx_driver
        return per_frame * frames + self.net_tx_per_byte * size

    def disk_op_cost(self, nbytes, sequential=False):
        """Service time for one disk request."""
        positioning = 0.0 if sequential else self.disk_seek + self.disk_rotation
        return positioning + nbytes / self.disk_transfer_bps


DEFAULT_COSTS = CostModel()
