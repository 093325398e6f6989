//! The kernel's weights digest is memoised in device memory
//! (`DeviceMemory::weights_digest`) and must never outlive a write to
//! the weights region: every inference has to equal the surrogate
//! computed afresh over what memory holds, through the real datapath and
//! under random writes, model loads, cold-boot wipes and snapshot
//! restores.

use ccai_core::system::{layout, ConfidentialSystem, SystemMode};
use ccai_sim::snapshot::{Decoder, Encoder};
use ccai_tvm::TlpPort;
use ccai_xpu::{CmdStatus, Command, CommandProcessor, DeviceMemory, Opcode, Reg, XpuSpec};
use proptest::prelude::*;

fn patterned(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i * 131 % 251) as u8 ^ salt).collect()
}

/// Declares `[addr, addr + len)` the model with register writes only:
/// a `LoadModel` that moves no byte of device memory.
fn declare_model(system: &mut ConfidentialSystem, addr: u64, len: u64) {
    let (driver, fabric, _, _, adaptor) = system.parts();
    let mut port = adaptor.expect("ccAI mode has an Adaptor").port(fabric);
    let port: &mut dyn TlpPort = &mut port;
    driver.write_register(port, Reg::CmdArg0, addr).expect("arg0");
    driver.write_register(port, Reg::CmdArg1, len).expect("arg1");
    driver.write_register(port, Reg::CmdDoorbell, Opcode::Clear.to_code()).expect("clear");
    driver.write_register(port, Reg::CmdDoorbell, Opcode::LoadModel.to_code()).expect("ring");
    let status = driver.read_register(port, Reg::CmdStatus).expect("status");
    assert_eq!(status, CmdStatus::Done.to_code());
}

/// Writes `data` at `device_addr` by DMA through the Adaptor and the SC.
fn dma(system: &mut ConfidentialSystem, data: &[u8], device_addr: u64) {
    let (driver, fabric, memory, stager, adaptor) = system.parts();
    let mut port = adaptor.expect("ccAI mode has an Adaptor").port(fabric);
    driver.dma_to_device(&mut port, memory, stager, data, device_addr).expect("DMA lands");
    stager.release_all();
}

#[test]
fn inference_follows_every_write_to_the_weights_through_the_datapath() {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    let mut weights = patterned(4096, 0);
    let prompt = patterned(1024, 0x5a);
    let infer = |system: &mut ConfidentialSystem| system.run_inference(&prompt).expect("inference");

    system.load_model(&weights).expect("model loads");
    let first = infer(&mut system);
    assert_eq!(first, CommandProcessor::surrogate_inference(&weights, &prompt));
    assert_eq!(infer(&mut system), first, "a warm memo serves the same model");

    // One byte rewritten at the last weight address, by DMA.
    let last = weights.len() - 1;
    weights[last] ^= 0xff;
    dma(&mut system, &weights[last..], layout::DEV_WEIGHTS + last as u64);
    let rewritten = infer(&mut system);
    assert_ne!(rewritten, first);
    assert_eq!(rewritten, CommandProcessor::surrogate_inference(&weights, &prompt));

    // A model of another length at the same address: once declared by
    // registers alone (no byte moves), once loaded by DMA.
    declare_model(&mut system, layout::DEV_WEIGHTS, 2048);
    let expected = CommandProcessor::surrogate_inference(&weights[..2048], &prompt);
    assert_eq!(infer(&mut system), expected);
    declare_model(&mut system, layout::DEV_WEIGHTS, weights.len() as u64);
    assert_eq!(infer(&mut system), rewritten);
    let shorter = patterned(3000, 0x33);
    system.load_model(&shorter).expect("shorter model loads");
    assert_eq!(infer(&mut system), CommandProcessor::surrogate_inference(&shorter, &prompt));

    // A snapshot taken with the memo warm is the image a cold system
    // takes, and resumes to the same output.
    let warm = system.snapshot();
    let mut resumed = ConfidentialSystem::resume(&warm).expect("image resumes");
    assert_eq!(resumed.snapshot().as_bytes(), warm.as_bytes());
    let expected = CommandProcessor::surrogate_inference(&shorter, &prompt);
    assert_eq!(infer(&mut resumed), expected);
    assert_eq!(infer(&mut system), expected);
    assert_eq!(resumed.snapshot().as_bytes(), system.snapshot().as_bytes());
}

const CAPACITY: u64 = 1 << 18;
const INPUT: u64 = 0x3_0000;
const INPUT_LEN: u64 = 300;
const OUTPUT: u64 = 0x3_8000;
/// Model ranges a `LoadModel` picks from; the second shares the first's
/// address, the third crosses a 64 KiB page boundary.
const MODELS: [(u64, u64); 4] = [(0x8000, 4096), (0x8000, 4000), (0xF800, 0x1000), (0x2_0000, 64)];

/// The `(addr, len)` the command processor holds as the model, if any.
type Model = Option<(u64, u64)>;

#[derive(Debug, Clone)]
enum Op {
    /// `len` bytes of `byte` at `edge + delta`, `edge` one of the model
    /// ranges' first or one-past-last byte.
    Write { edge: usize, delta: i64, len: usize, byte: u8 },
    /// `LoadModel` of `MODELS[i]`.
    Load(usize),
    /// A kernel run whose 32-byte output lands inside `MODELS[i]`.
    InferInto(usize),
    /// The engine's cold boot: memory and command processor wiped.
    Wipe,
    /// Keep an image of memory and command processor.
    Snapshot,
    /// Restore the last image in place.
    Restore,
}

/// A write of up to `reach` bytes starting within `reach` of an edge: a
/// small reach hits exactly the first or the last weight byte often.
fn arb_write(reach: i64) -> impl Strategy<Value = Op> {
    (0..MODELS.len() * 2, 0..2 * reach, 1..reach as usize + 1, any::<u8>())
        .prop_map(move |(edge, d, len, byte)| Op::Write { edge, delta: d - reach, len, byte })
}

/// Writes four times and loads three times as often as the rest.
fn arb_op() -> impl Strategy<Value = Op> {
    let load = || (0..MODELS.len()).prop_map(Op::Load);
    prop_oneof![
        arb_write(4),
        arb_write(4),
        arb_write(40),
        arb_write(40),
        load(),
        load(),
        load(),
        (0..MODELS.len()).prop_map(Op::InferInto),
        Just(Op::Wipe),
        Just(Op::Snapshot),
        Just(Op::Restore),
    ]
}

fn encode(mem: &DeviceMemory, cp: &CommandProcessor) -> Vec<u8> {
    let mut enc = Encoder::new();
    mem.encode_snapshot(&mut enc);
    enc.put(cp);
    enc.finish()
}

/// Runs one inference of the input at `output`; checks it against the
/// surrogate over what memory holds before the kernel writes. `ops` is
/// the case so far, for the failure message.
fn check_inference(
    mem: &mut DeviceMemory,
    cp: &mut CommandProcessor,
    model: Model,
    output: u64,
    ops: &[Op],
) {
    let expected = model.map(|(addr, len)| {
        let weights = mem.read(addr, len).expect("model in bounds");
        let input = mem.read(INPUT, INPUT_LEN).expect("input in bounds");
        CommandProcessor::surrogate_inference(&weights, &input)
    });
    let status = cp.execute(Command::RunInference { input: INPUT, len: INPUT_LEN, output }, mem);
    match expected {
        Some(expected) => {
            prop_assert_eq!(status, CmdStatus::Done, "after {:?}", ops);
            let out = mem.read(output, 32).expect("output in bounds");
            prop_assert_eq!(out, expected.to_vec(), "after {:?}", ops);
        }
        None => prop_assert_eq!(status, CmdStatus::Error, "after {:?}", ops),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn weights_digest_memo_never_outlives_a_write(
        ops in proptest::collection::vec(arb_op(), 1..32),
    ) {
        let mut mem = DeviceMemory::new(CAPACITY);
        let mut cp = CommandProcessor::new();
        for (i, (addr, len)) in MODELS.into_iter().enumerate() {
            mem.write(addr, &patterned(len as usize, i as u8)).expect("in bounds");
        }
        mem.write(INPUT, &patterned(INPUT_LEN as usize, 0x77)).expect("in bounds");
        let mut model = None;
        let mut image: Option<(Vec<u8>, Model)> = None;
        for (at, op) in ops.iter().enumerate() {
            let done = &ops[..=at];
            match *op {
                Op::Write { edge, delta, len, byte } => {
                    let (base, mlen) = MODELS[edge / 2];
                    let at = base + if edge % 2 == 0 { 0 } else { mlen };
                    let addr = at.checked_add_signed(delta).expect("inside memory");
                    mem.write(addr, &vec![byte; len]).expect("in bounds");
                }
                Op::Load(i) => {
                    let (addr, len) = MODELS[i];
                    let status = cp.execute(Command::LoadModel { addr, len }, &mut mem);
                    prop_assert_eq!(status, CmdStatus::Done);
                    model = Some((addr, len));
                }
                Op::InferInto(i) => {
                    let (addr, len) = MODELS[i];
                    check_inference(&mut mem, &mut cp, model, addr + len / 2, done);
                }
                Op::Wipe => {
                    mem.wipe();
                    cp.wipe();
                    model = None;
                }
                Op::Snapshot => image = Some((encode(&mem, &cp), model)),
                Op::Restore => {
                    if let Some((bytes, at)) = &image {
                        let mut dec = Decoder::new(bytes);
                        mem.restore_snapshot(&mut dec).expect("image restores");
                        cp = dec.get().expect("processor restores");
                        model = *at;
                    }
                }
            }
            check_inference(&mut mem, &mut cp, model, OUTPUT, done);
        }
    }
}
