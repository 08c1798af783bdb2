//! Command timing on the simulated clock.
//!
//! The OpenMPDK emulator models device time with an IOPS model rather than
//! real hardware timing; we do the same, deterministically. Every command
//! yields a list of [`TimedOp`]s (from the FTL) plus fixed
//! command-processing overhead and host-transfer time:
//!
//! * **Sync** — the host waits for each command: overhead + host transfer +
//!   all media ops serialized.
//! * **Async** — the host keeps up to `queue_depth` commands in flight.
//!   Command issue costs only the overhead; media ops start no earlier
//!   than issue and queue FIFO per flash channel, so independent commands
//!   overlap across channels. Completion is the last media op (or the
//!   host transfer, whichever is later).

use rhik_ftl::TimedOp;
use rhik_nand::DeviceProfile;

use crate::config::EngineMode;

/// Timing outcome of one command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommandTiming {
    pub submitted_ns: u64,
    pub completed_ns: u64,
}

impl CommandTiming {
    pub fn latency_ns(&self) -> u64 {
        self.completed_ns - self.submitted_ns
    }
}

/// The device's clock and scheduling state.
pub struct TimingEngine {
    mode: EngineMode,
    profile: DeviceProfile,
    /// Next instant the host CPU is free to issue a command.
    issue_free_ns: u64,
    /// Next free instant per flash channel.
    channel_free_ns: Vec<u64>,
    /// Completion times of commands still "in flight" (bounded by queue
    /// depth in async mode).
    inflight: Vec<u64>,
    /// Largest completion time seen.
    horizon_ns: u64,
    /// Inside a compound command: overhead charged once, then waived.
    compound: bool,
    compound_overhead_charged: bool,
}

impl TimingEngine {
    pub fn new(mode: EngineMode, profile: DeviceProfile, channels: u32) -> Self {
        TimingEngine {
            mode,
            profile,
            issue_free_ns: 0,
            channel_free_ns: vec![0; channels as usize],
            // bounded-by: submit evicts the earliest completion once len
            // reaches the profile's queue depth.
            inflight: Vec::new(),
            horizon_ns: 0,
            compound: false,
            compound_overhead_charged: false,
        }
    }

    /// Enter/leave compound-command mode (Kim et al.'s request coalescing:
    /// one command-processing overhead per batch).
    pub fn set_compound(&mut self, on: bool) {
        self.compound = on;
        self.compound_overhead_charged = false;
    }

    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Simulated time at which all issued work has completed.
    pub fn now_ns(&self) -> u64 {
        self.horizon_ns.max(self.issue_free_ns)
    }

    /// Commands still in flight (async mode; always 0 in sync mode, where
    /// the host blocks per command). The device's metrics export this as
    /// the per-shard submission-queue-depth gauge.
    pub fn inflight_commands(&self) -> usize {
        self.inflight.len()
    }

    /// Account one command: its media ops, plus `host_bytes` moved across
    /// the host interface.
    pub fn account(&mut self, ops: &[TimedOp], host_bytes: u64) -> CommandTiming {
        let overhead = if self.compound && self.compound_overhead_charged {
            0
        } else {
            self.compound_overhead_charged = true;
            self.profile.command_overhead_ns
        };
        let transfer = self.profile.host_transfer_ns(host_bytes);

        match self.mode {
            EngineMode::Sync => {
                // The host blocks: everything serializes after the later of
                // "host free" and "all previous work done".
                let start = self.now_ns();
                let mut t = start + overhead + transfer;
                for op in ops {
                    t += op.duration_ns;
                }
                self.issue_free_ns = t;
                self.horizon_ns = self.horizon_ns.max(t);
                CommandTiming { submitted_ns: start, completed_ns: t }
            }
            EngineMode::Async { queue_depth } => {
                // Respect the queue bound: wait until a slot frees.
                let mut start = self.issue_free_ns;
                if self.inflight.len() >= queue_depth as usize {
                    self.inflight.sort_unstable();
                    let freed = self.inflight.remove(0);
                    start = start.max(freed);
                }
                let issued = start + overhead;
                self.issue_free_ns = issued;

                // Media ops queue FIFO on their channels, starting no
                // earlier than issue time.
                let mut done = issued + transfer;
                for op in ops {
                    let ch = op.channel as usize % self.channel_free_ns.len();
                    let begin = self.channel_free_ns[ch].max(issued);
                    self.channel_free_ns[ch] = begin + op.duration_ns;
                    done = done.max(self.channel_free_ns[ch]);
                }
                self.inflight.push(done);
                self.horizon_ns = self.horizon_ns.max(done);
                CommandTiming { submitted_ns: start, completed_ns: done }
            }
        }
    }

    /// Stall the device (resize holds the submission queue, §IV-A2): no
    /// command may be issued before `until_ns`.
    pub fn stall_until(&mut self, until_ns: u64) {
        self.issue_free_ns = self.issue_free_ns.max(until_ns);
        self.horizon_ns = self.horizon_ns.max(until_ns);
    }

    /// Simulated seconds elapsed since power-on.
    pub fn elapsed_secs(&self) -> f64 {
        self.now_ns() as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(channel: u32, duration_ns: u64) -> TimedOp {
        TimedOp { channel, duration_ns }
    }

    fn profile() -> DeviceProfile {
        DeviceProfile {
            latency: rhik_nand::LatencyModel {
                read_ns: 10,
                program_ns: 100,
                erase_ns: 1000,
                transfer_ns_per_byte: 0.0,
            },
            command_overhead_ns: 5,
            host_bandwidth_bps: 1_000_000_000, // 1 B/ns
            name: "test",
        }
    }

    #[test]
    fn sync_serializes_everything() {
        let mut e = TimingEngine::new(EngineMode::Sync, profile(), 4);
        let t1 = e.account(&[op(0, 100), op(1, 100)], 1000);
        // 5 overhead + 1000 transfer (1ns/B) + 200 media.
        assert_eq!(t1.latency_ns(), 5 + 1000 + 200);
        let t2 = e.account(&[op(2, 50)], 0);
        assert_eq!(t2.submitted_ns, t1.completed_ns);
        assert_eq!(e.now_ns(), t2.completed_ns);
    }

    #[test]
    fn async_overlaps_channels() {
        let mut e = TimingEngine::new(EngineMode::Async { queue_depth: 8 }, profile(), 4);
        // Two commands on different channels overlap almost fully.
        let a = e.account(&[op(0, 1000)], 0);
        let b = e.account(&[op(1, 1000)], 0);
        assert!(b.completed_ns < a.completed_ns + 1000, "no overlap: {a:?} {b:?}");
        // Same channel: serialized.
        let c = e.account(&[op(0, 1000)], 0);
        assert!(c.completed_ns >= a.completed_ns + 1000);
    }

    #[test]
    fn async_faster_than_sync_for_parallel_work() {
        let ops: Vec<Vec<TimedOp>> = (0..16).map(|i| vec![op(i % 4, 1000)]).collect();
        let mut sync = TimingEngine::new(EngineMode::Sync, profile(), 4);
        let mut asn = TimingEngine::new(EngineMode::Async { queue_depth: 8 }, profile(), 4);
        for o in &ops {
            sync.account(o, 0);
            asn.account(o, 0);
        }
        assert!(
            asn.now_ns() * 2 < sync.now_ns(),
            "async {} vs sync {}",
            asn.now_ns(),
            sync.now_ns()
        );
    }

    #[test]
    fn queue_depth_bounds_inflight() {
        let mut e = TimingEngine::new(EngineMode::Async { queue_depth: 2 }, profile(), 8);
        let a = e.account(&[op(0, 10_000)], 0);
        let _b = e.account(&[op(1, 10_000)], 0);
        // Third command must wait for a slot.
        let c = e.account(&[op(2, 10)], 0);
        assert!(c.submitted_ns >= a.completed_ns);
    }

    #[test]
    fn stall_delays_next_command() {
        let mut e = TimingEngine::new(EngineMode::Sync, profile(), 2);
        e.stall_until(1_000_000);
        let t = e.account(&[], 0);
        assert!(t.submitted_ns >= 1_000_000);
    }

    #[test]
    fn compound_mode_waives_overhead_after_first() {
        for mode in [EngineMode::Sync, EngineMode::Async { queue_depth: 4 }] {
            let mut e = TimingEngine::new(mode, profile(), 2);
            e.set_compound(true);
            let a = e.account(&[], 0);
            let b = e.account(&[], 0);
            // First command pays the 5ns overhead, the second none.
            assert_eq!(a.latency_ns(), 5, "{mode:?}");
            assert_eq!(b.latency_ns(), 0, "{mode:?}");
            e.set_compound(false);
            let c = e.account(&[], 0);
            assert_eq!(c.latency_ns(), 5, "{mode:?}: overhead restored");
        }
    }
}
