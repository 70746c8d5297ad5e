//! The per-instruction trace record.

use std::fmt;

/// Which register file a traced operand lives in.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// Integer (general-purpose) register file.
    Int,
    /// Floating-point register file.
    Fp,
}

/// A reference to one architectural register.
///
/// The hardwired integer zero register is never recorded as an operand
/// (it has no producer, so it creates no dependency).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct RegRef {
    /// Register file.
    pub class: RegClass,
    /// Register number, 0–31.
    pub num: u8,
}

impl RegRef {
    /// An integer register operand.
    #[inline]
    pub fn int(num: u8) -> RegRef {
        RegRef {
            class: RegClass::Int,
            num,
        }
    }

    /// A floating-point register operand.
    #[inline]
    pub fn fp(num: u8) -> RegRef {
        RegRef {
            class: RegClass::Fp,
            num,
        }
    }

    /// Dense index 0–63 across both register files, handy for scoreboards.
    #[inline]
    pub fn flat_index(self) -> usize {
        match self.class {
            RegClass::Int => self.num as usize,
            RegClass::Fp => 32 + self.num as usize,
        }
    }
}

impl fmt::Display for RegRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Int => write!(f, "x{}", self.num),
            RegClass::Fp => write!(f, "f{}", self.num),
        }
    }
}

/// Timing-relevant operation class of a traced instruction.
///
/// This is the only instruction identity the timing models need; it maps
/// onto the paper's Table 5 latency rows and the PowerPC 620 functional
/// units of Figure 8.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Single-cycle integer ALU operation.
    IntSimple,
    /// Multi-cycle integer operation (multiply/divide).
    IntComplex,
    /// Simple FP operation (add/sub/mul/convert/compare).
    FpSimple,
    /// Complex FP operation (divide/sqrt).
    FpComplex,
    /// Memory load (integer or FP).
    Load,
    /// Memory store (integer or FP).
    Store,
    /// Conditional branch.
    CondBranch,
    /// Direct unconditional jump (`jal`).
    Jump,
    /// Indirect jump (`jalr`): function returns, computed branches,
    /// virtual calls.
    IndirectJump,
    /// System operation (`out`, `nop`, `halt`).
    System,
}

impl OpKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [OpKind; 10] = [
        OpKind::IntSimple,
        OpKind::IntComplex,
        OpKind::FpSimple,
        OpKind::FpComplex,
        OpKind::Load,
        OpKind::Store,
        OpKind::CondBranch,
        OpKind::Jump,
        OpKind::IndirectJump,
        OpKind::System,
    ];

    /// Whether the instruction transfers control.
    #[inline]
    pub fn is_control(self) -> bool {
        matches!(
            self,
            OpKind::CondBranch | OpKind::Jump | OpKind::IndirectJump
        )
    }

    /// Whether the instruction accesses memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::IntSimple => "int",
            OpKind::IntComplex => "int*",
            OpKind::FpSimple => "fp",
            OpKind::FpComplex => "fp*",
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::CondBranch => "branch",
            OpKind::Jump => "jump",
            OpKind::IndirectJump => "ijump",
            OpKind::System => "sys",
        };
        f.write_str(s)
    }
}

/// One traced memory access.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u64,
    /// Access width in bytes (1, 2, 4, or 8).
    pub width: u8,
    /// For loads: the **register result** (after sign/zero extension; raw
    /// bits for FP loads) — this is the value the LVPT predicts. For
    /// stores: the value written to memory (truncated to `width`).
    pub value: u64,
    /// Whether the access targets the FP register file.
    pub fp: bool,
}

/// Outcome of a traced control-transfer instruction.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct BranchEvent {
    /// Whether the branch was taken (always true for jumps).
    pub taken: bool,
    /// The target address (next-pc if not taken).
    pub target: u64,
}

/// Register slot meaning "no operand" in a [`TraceEntry`].
const NO_REG: u8 = 0xFF;
/// [`TraceEntry`] flag: the memory access targets the FP register file.
const FLAG_FP: u8 = 1;
/// [`TraceEntry`] flag: the control transfer was taken.
const FLAG_TAKEN: u8 = 2;

/// Packs an optional register into a flat slot (`0xFF` when absent).
#[inline]
fn slot(r: Option<RegRef>) -> u8 {
    match r {
        None => NO_REG,
        Some(r) => {
            debug_assert!(r.num < 32, "register number {} out of range", r.num);
            RegRef {
                num: r.num & 0x1f,
                ..r
            }
            .flat_index() as u8
        }
    }
}

/// Unpacks a flat slot written by [`slot`].
#[inline]
fn unslot(s: u8) -> Option<RegRef> {
    match s {
        NO_REG => None,
        0..=31 => Some(RegRef::int(s)),
        _ => Some(RegRef::fp(s - 32)),
    }
}

/// One retired instruction in a dynamic trace.
///
/// A packed 32-byte record: the pc, one word holding the memory address
/// (loads and stores) or the control-transfer target, the loaded or
/// stored value, and eight bytes of metadata — kind, three flat register
/// slots, access width and the FP/taken flags. The kind decides the
/// payload: [`TraceEntry::mem`] is `Some` exactly for
/// [`OpKind::Load`]/[`OpKind::Store`] and [`TraceEntry::branch`] exactly
/// for [`OpKind::is_control`] kinds. Slots a kind does not use are zero,
/// so equality and hashing compare meaning only.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct TraceEntry {
    pc: u64,
    /// Effective address for loads/stores, target for control transfers.
    addr: u64,
    /// Loaded or stored value for loads/stores.
    value: u64,
    kind: OpKind,
    dst: u8,
    srcs: [u8; 2],
    width: u8,
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<TraceEntry>() == 32);

impl TraceEntry {
    /// Operands only; every payload slot zero.
    #[inline]
    fn base(pc: u64, kind: OpKind, dst: Option<RegRef>, srcs: [Option<RegRef>; 2]) -> TraceEntry {
        TraceEntry {
            pc,
            addr: 0,
            value: 0,
            kind,
            dst: slot(dst),
            srcs: [slot(srcs[0]), slot(srcs[1])],
            width: 0,
            flags: 0,
        }
    }

    /// An instruction that neither accesses memory nor transfers control.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a load, store or control kind.
    pub fn op(pc: u64, kind: OpKind, dst: Option<RegRef>, srcs: [Option<RegRef>; 2]) -> TraceEntry {
        assert!(
            !kind.is_mem() && !kind.is_control(),
            "{kind:?} entry needs a payload"
        );
        TraceEntry::base(pc, kind, dst, srcs)
    }

    /// A load or store with its memory access.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not [`OpKind::Load`] or [`OpKind::Store`].
    pub fn mem_op(
        pc: u64,
        kind: OpKind,
        dst: Option<RegRef>,
        srcs: [Option<RegRef>; 2],
        access: MemAccess,
    ) -> TraceEntry {
        TraceEntry::base(pc, kind, dst, srcs).with_mem(access)
    }

    /// A control transfer with its outcome.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a control kind ([`OpKind::is_control`]).
    pub fn control(
        pc: u64,
        kind: OpKind,
        dst: Option<RegRef>,
        srcs: [Option<RegRef>; 2],
        event: BranchEvent,
    ) -> TraceEntry {
        TraceEntry::base(pc, kind, dst, srcs).with_branch(event)
    }

    /// A minimal entry with no operands; useful in tests and synthetic
    /// traces. Kinds that carry a payload get a neutral one: loads and
    /// stores an 8-byte access of 0 at address 0, control transfers the
    /// fall-through target `pc + 4` (taken for unconditional kinds).
    pub fn simple(pc: u64, kind: OpKind) -> TraceEntry {
        let e = TraceEntry::base(pc, kind, None, [None, None]);
        if kind.is_mem() {
            e.with_mem(MemAccess {
                addr: 0,
                width: 8,
                value: 0,
                fp: false,
            })
        } else if kind.is_control() {
            e.with_branch(BranchEvent {
                taken: kind != OpKind::CondBranch,
                target: pc.wrapping_add(4),
            })
        } else {
            e
        }
    }

    /// Validates the payload against the kind: the decoders' constructor.
    pub(crate) fn from_parts(
        pc: u64,
        kind: OpKind,
        dst: Option<RegRef>,
        srcs: [Option<RegRef>; 2],
        mem: Option<MemAccess>,
        branch: Option<BranchEvent>,
    ) -> Result<TraceEntry, &'static str> {
        let e = TraceEntry::base(pc, kind, dst, srcs);
        match (mem, branch) {
            (Some(m), None) if kind.is_mem() => Ok(e.with_mem(m)),
            (None, Some(b)) if kind.is_control() => Ok(e.with_branch(b)),
            (None, None) if !kind.is_mem() && !kind.is_control() => Ok(e),
            _ => Err("payload disagrees with op kind"),
        }
    }

    /// This entry with its memory access replaced; the fast path for
    /// filling a load/store template.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not a load or store.
    #[inline]
    pub fn with_mem(mut self, access: MemAccess) -> TraceEntry {
        assert!(
            self.kind.is_mem(),
            "{:?} entry has no memory access",
            self.kind
        );
        self.addr = access.addr;
        self.value = access.value;
        self.width = access.width;
        self.flags = if access.fp { FLAG_FP } else { 0 };
        self
    }

    /// This entry with its control-transfer outcome replaced; the fast
    /// path for filling a branch template.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not a control transfer.
    #[inline]
    pub fn with_branch(mut self, event: BranchEvent) -> TraceEntry {
        assert!(
            self.kind.is_control(),
            "{:?} entry has no branch event",
            self.kind
        );
        self.addr = event.target;
        self.flags = if event.taken { FLAG_TAKEN } else { 0 };
        self
    }

    /// Address of the instruction.
    #[inline]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Timing class.
    #[inline]
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Destination register, if the instruction writes one.
    #[inline]
    pub fn dst(&self) -> Option<RegRef> {
        unslot(self.dst)
    }

    /// Up to two source register operands (zero register omitted).
    #[inline]
    pub fn srcs(&self) -> [Option<RegRef>; 2] {
        [unslot(self.srcs[0]), unslot(self.srcs[1])]
    }

    /// Memory access: `Some` exactly for loads and stores.
    #[inline]
    pub fn mem(&self) -> Option<MemAccess> {
        self.kind.is_mem().then_some(MemAccess {
            addr: self.addr,
            width: self.width,
            value: self.value,
            fp: self.flags & FLAG_FP != 0,
        })
    }

    /// Branch outcome: `Some` exactly for control transfers.
    #[inline]
    pub fn branch(&self) -> Option<BranchEvent> {
        self.kind.is_control().then_some(BranchEvent {
            taken: self.flags & FLAG_TAKEN != 0,
            target: self.addr,
        })
    }

    /// Whether this entry is a load.
    #[inline]
    pub fn is_load(&self) -> bool {
        self.kind == OpKind::Load
    }

    /// Whether this entry is a store.
    #[inline]
    pub fn is_store(&self) -> bool {
        self.kind == OpKind::Store
    }

    /// Iterates over the present source operands.
    pub fn sources(&self) -> impl Iterator<Item = RegRef> {
        self.srcs.into_iter().filter_map(unslot)
    }
}

impl fmt::Debug for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceEntry")
            .field("pc", &self.pc)
            .field("kind", &self.kind)
            .field("dst", &self.dst())
            .field("srcs", &self.srcs())
            .field("mem", &self.mem())
            .field("branch", &self.branch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_index_is_dense_and_disjoint() {
        assert_eq!(RegRef::int(0).flat_index(), 0);
        assert_eq!(RegRef::int(31).flat_index(), 31);
        assert_eq!(RegRef::fp(0).flat_index(), 32);
        assert_eq!(RegRef::fp(31).flat_index(), 63);
    }

    #[test]
    fn sources_skips_missing() {
        let e = TraceEntry::op(0, OpKind::IntSimple, None, [None, Some(RegRef::int(5))]);
        assert_eq!(e.sources().collect::<Vec<_>>(), [RegRef::int(5)]);
    }

    #[test]
    fn kind_decides_the_payload() {
        let access = MemAccess {
            addr: 0x10_0008,
            width: 4,
            value: u64::MAX,
            fp: true,
        };
        let event = BranchEvent {
            taken: true,
            target: 0x2000,
        };
        let regs = [Some(RegRef::fp(31)), Some(RegRef::int(1))];
        let load = TraceEntry::mem_op(0x1000, OpKind::Load, Some(RegRef::int(31)), regs, access);
        assert_eq!(load.mem(), Some(access));
        assert_eq!(load.branch(), None);
        assert_eq!(load.dst(), Some(RegRef::int(31)));
        assert_eq!(load.srcs(), regs);
        let jump = TraceEntry::control(0x1004, OpKind::Jump, None, [None, None], event);
        assert_eq!((jump.mem(), jump.branch()), (None, Some(event)));
        for &kind in &OpKind::ALL {
            let e = TraceEntry::simple(0x1000, kind);
            assert_eq!(e.mem().is_some(), kind.is_mem(), "{kind:?}");
            assert_eq!(e.branch().is_some(), kind.is_control(), "{kind:?}");
            assert_eq!((e.dst(), e.srcs()), (None, [None, None]));
        }
        assert_eq!(
            TraceEntry::simple(0x1000, OpKind::CondBranch).branch(),
            Some(BranchEvent {
                taken: false,
                target: 0x1004
            })
        );
    }

    #[test]
    fn from_parts_rejects_a_payload_the_kind_does_not_carry() {
        let access = Some(MemAccess {
            addr: 8,
            width: 8,
            value: 1,
            fp: false,
        });
        let event = Some(BranchEvent {
            taken: false,
            target: 4,
        });
        let parts =
            |kind, mem, branch| TraceEntry::from_parts(0, kind, None, [None, None], mem, branch);
        assert!(parts(OpKind::Load, access, None).is_ok());
        assert!(parts(OpKind::Jump, None, event).is_ok());
        assert!(parts(OpKind::System, None, None).is_ok());
        for (kind, mem, branch) in [
            (OpKind::Store, None, None),
            (OpKind::IntSimple, access, None),
            (OpKind::FpSimple, None, event),
            (OpKind::IndirectJump, None, None),
            (OpKind::Load, access, event),
        ] {
            assert_eq!(
                parts(kind, mem, branch),
                Err("payload disagrees with op kind"),
                "{kind:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "needs a payload")]
    fn op_rejects_a_payload_kind() {
        let _ = TraceEntry::op(0, OpKind::Load, None, [None, None]);
    }

    #[test]
    #[should_panic(expected = "has no branch event")]
    fn with_branch_rejects_a_non_control_kind() {
        let _ = TraceEntry::simple(0, OpKind::Store).with_branch(BranchEvent {
            taken: true,
            target: 0,
        });
    }

    #[test]
    fn equality_ignores_a_replaced_payload_history() {
        // A template refilled with the same payload equals one built
        // directly: no stale bytes survive in unused slots.
        let access = MemAccess {
            addr: 16,
            width: 2,
            value: 3,
            fp: false,
        };
        let template = TraceEntry::mem_op(
            0,
            OpKind::Load,
            None,
            [None, None],
            MemAccess { fp: true, ..access },
        );
        assert_eq!(
            template.with_mem(access),
            TraceEntry::mem_op(0, OpKind::Load, None, [None, None], access)
        );
    }

    #[test]
    fn control_and_mem_predicates() {
        assert!(OpKind::CondBranch.is_control());
        assert!(OpKind::IndirectJump.is_control());
        assert!(!OpKind::Load.is_control());
        assert!(OpKind::Load.is_mem());
        assert!(OpKind::Store.is_mem());
        assert!(!OpKind::IntSimple.is_mem());
    }

    #[test]
    fn display_forms() {
        assert_eq!(RegRef::int(3).to_string(), "x3");
        assert_eq!(RegRef::fp(7).to_string(), "f7");
        assert_eq!(OpKind::Load.to_string(), "load");
    }
}
