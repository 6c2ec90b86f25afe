//! Fluent construction of configured machines.

use crate::barrier_hw::BarrierUnit;
use crate::machine::{Machine, MachineConfig, SimError};
use crate::memory::{CacheConfig, MemoryConfig};
use crate::program::Program;

/// Builder for a [`Machine`] with non-default memory, pipeline, tracing or
/// barrier-unit configuration.
///
/// # Examples
///
/// ```
/// use fuzzy_sim::builder::MachineBuilder;
/// use fuzzy_sim::assembler::assemble_program;
///
/// let program = assemble_program(".stream\nnop\nhalt\n")?;
/// let mut machine = MachineBuilder::new(program)
///     .pipelined(true)
///     .trace(true)
///     .miss_rate(0.1)
///     .build()?;
/// machine.run(1_000)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MachineBuilder {
    program: Program,
    cfg: MachineConfig,
    units: Option<Vec<BarrierUnit>>,
    preload: Vec<(usize, i64)>,
}

impl MachineBuilder {
    /// Starts a builder for `program`.
    #[must_use]
    pub fn new(program: Program) -> Self {
        MachineBuilder {
            program,
            cfg: MachineConfig::default(),
            units: None,
            preload: Vec::new(),
        }
    }

    /// Replaces the whole memory configuration.
    #[must_use]
    pub fn memory(mut self, memory: MemoryConfig) -> Self {
        self.cfg.memory = memory;
        self
    }

    /// Sets the probabilistic miss rate (drift injection).
    #[must_use]
    pub fn miss_rate(mut self, rate: f64) -> Self {
        self.cfg.memory.miss_rate = rate;
        self
    }

    /// Sets the miss penalty in cycles.
    #[must_use]
    pub fn miss_penalty(mut self, cycles: u64) -> Self {
        self.cfg.memory.miss_penalty = cycles;
        self
    }

    /// Sets the number of memory banks.
    #[must_use]
    pub fn banks(mut self, banks: usize) -> Self {
        self.cfg.memory.banks = banks;
        self
    }

    /// Attaches per-processor direct-mapped caches.
    #[must_use]
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cfg.memory.cache = Some(cache);
        self
    }

    /// Sets the RNG seed for probabilistic misses.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.memory.seed = seed;
        self
    }

    /// Enables or disables pipelined issue.
    #[must_use]
    pub fn pipelined(mut self, on: bool) -> Self {
        self.cfg.pipelined = on;
        self
    }

    /// Enables or disables the event trace.
    #[must_use]
    pub fn trace(mut self, on: bool) -> Self {
        self.cfg.trace = on;
        self
    }

    /// Enables or disables static program validation. Disable only to
    /// observe what invalid programs (Fig. 2) do at run time.
    #[must_use]
    pub fn validate(mut self, on: bool) -> Self {
        self.cfg.validate = on;
        self
    }

    /// Provides explicit initial barrier units (mask + tag per processor).
    #[must_use]
    pub fn units(mut self, units: Vec<BarrierUnit>) -> Self {
        self.units = Some(units);
        self
    }

    /// Preloads shared memory with `(address, value)` words before the
    /// machine starts (e.g. the `.word` data from
    /// [`crate::assembler::assemble`]).
    #[must_use]
    pub fn preload(mut self, data: Vec<(usize, i64)>) -> Self {
        self.preload.extend(data);
        self
    }

    /// Builds the machine.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProgram`] if validation is on and fails,
    /// and [`SimError::TooManyProcessors`] for more than 64 streams.
    pub fn build(self) -> Result<Machine, SimError> {
        let mut machine = match self.units {
            Some(units) => Machine::with_units(self.program, self.cfg, units)?,
            None => Machine::new(self.program, self.cfg)?,
        };
        for (addr, value) in self.preload {
            machine.memory_mut().poke(addr, value);
        }
        Ok(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembler::assemble_program;

    #[test]
    fn builder_produces_runnable_machine() {
        let p = assemble_program("li r1, 3\nhalt\n").unwrap();
        let mut m = MachineBuilder::new(p)
            .banks(2)
            .miss_penalty(4)
            .seed(42)
            .build()
            .unwrap();
        assert!(m.run(100).unwrap().is_halted());
        assert_eq!(m.procs()[0].reg(1), 3);
    }

    #[test]
    fn builder_units_override_defaults() {
        let p = assemble_program(".stream\nhalt\n.stream\nhalt\n").unwrap();
        let units = vec![BarrierUnit::new(0, 5), BarrierUnit::new(0, 6)];
        let m = MachineBuilder::new(p).units(units).build().unwrap();
        assert_eq!(m.procs()[0].unit.tag, 5);
        assert_eq!(m.procs()[1].unit.tag, 6);
    }

    #[test]
    fn validation_can_be_disabled() {
        // An invalid (barrier→barrier branch) program loads when
        // validation is off.
        let src = "B: nop\nB: j b2\nnop\nb2:\nB: nop\nhalt\n";
        let p = assemble_program(src).unwrap();
        assert!(MachineBuilder::new(p.clone()).build().is_err());
        assert!(MachineBuilder::new(p).validate(false).build().is_ok());
    }
}
