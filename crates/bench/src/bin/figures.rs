//! Regenerates every table and figure of the paper's evaluation and
//! prints them as text.
//!
//! ```text
//! cargo run -p ccai-bench --bin figures             # everything
//! cargo run -p ccai-bench --bin figures -- fig8     # one artifact
//! ```

use ccai_bench::{figures, render, tcb};

fn main() {
    let filter: Option<String> = std::env::args().nth(1);
    let want = |name: &str| filter.as_deref().is_none_or(|f| f.eq_ignore_ascii_case(name));

    if want("table1") {
        println!("{}", render::table1());
    }
    if want("table2") {
        println!("{}", render::table2());
    }
    if want("table3") {
        println!("{}", render::table3(&tcb::row_lines()));
    }
    if want("fig6") {
        use ccai_crypto::{DhGroup, SchnorrKeyPair};
        use ccai_trust::attest::{run_protocol, Platform, Verifier};
        use ccai_trust::hrot::KeyCertificate;
        use ccai_trust::pcr::PcrIndex;
        use ccai_trust::HrotBlade;
        use std::collections::HashMap;

        println!("== Fig. 6: remote attestation protocol ==");
        let group = DhGroup::sim512();
        let vendor_ca = SchnorrKeyPair::generate(&group, &[0xCA; 32]);
        let mut blade = HrotBlade::manufacture(&group, &[0x01; 32]);
        blade.install_ek_certificate(KeyCertificate::issue(&vendor_ca, "EK", blade.ek_public()));
        blade.boot_generate_ak(&[0x02; 32]);
        blade
            .pcrs_mut()
            .extend_assigned(PcrIndex::ScBitstream, b"packet-filter bitstream v1");
        let golden: HashMap<usize, _> = [(
            PcrIndex::ScBitstream.index(),
            blade.pcrs().read_assigned(PcrIndex::ScBitstream),
        )]
        .into_iter()
        .collect();
        let mut platform = Platform::new(blade, &group, &[0x03; 32]);
        let mut verifier =
            Verifier::new(vendor_ca.public().clone(), &group, &[0x04; 32], golden);
        println!("(1) SessionKey = DHKE(AttestKey)            ... exchanged");
        println!("(2) S(AttestKey), S(EndorseKey)             ... certificate chain sent");
        println!("(3) KeyID, PCRsel, n                        ... challenge issued");
        match run_protocol(&mut verifier, &mut platform, &[1], [0xAA; 32]) {
            Ok(()) => println!("(4) r, S(r)                                 ... report VERIFIED"),
            Err(e) => println!("(4) r, S(r)                                 ... REJECTED: {e}"),
        }
        println!();
    }
    if want("fig8") {
        let fix_batch = figures::fig8_fix_batch();
        let fix_token = figures::fig8_fix_token();
        println!("{}", render::comparison_table("Fig. 8a: fix-batch E2E latency", "E2E", &fix_batch));
        println!("{}", render::comparison_table("Fig. 8b: fix-token E2E latency", "E2E", &fix_token));
        println!("{}", render::comparison_table("Fig. 8c: fix-batch TPS", "TPS", &fix_batch));
        println!("{}", render::comparison_table("Fig. 8d: fix-token TPS", "TPS", &fix_token));
        println!("{}", render::comparison_table("Fig. 8e: fix-batch TTFT", "TTFT", &fix_batch));
        println!("{}", render::comparison_table("Fig. 8f: fix-token TTFT", "TTFT", &fix_token));
    }
    if want("fig9") {
        println!(
            "{}",
            render::comparison_table("Fig. 9: different LLMs (512 tok, batch 1, A100)", "E2E", &figures::fig9())
        );
    }
    if want("fig10") {
        println!(
            "{}",
            render::comparison_table("Fig. 10: five xPU devices (512 tok, batch 1)", "E2E", &figures::fig10())
        );
    }
    if want("fig11") {
        println!(
            "{}",
            render::ablation_table("Fig. 11 (left): optimization, token sweep", &figures::fig11_fix_batch())
        );
        println!(
            "{}",
            render::ablation_table("Fig. 11 (right): optimization, batch sweep", &figures::fig11_fix_token())
        );
    }
    if want("fig12a") {
        println!(
            "{}",
            render::comparison_table("Fig. 12a: limited PCIe bandwidth", "E2E", &figures::fig12a())
        );
    }
    if want("fig12b") {
        println!("{}", render::kv_table(&figures::fig12b()));
    }
    if want("ablations") {
        println!("{}", render::opt_ablation_table(&figures::ablation_optimizations()));
        let (selective, full_link) = figures::ablation_granularity();
        println!("== Packet-level vs full-link protection ==");
        println!("selective (ccAI): {:+.2}% E2E overhead", selective * 100.0);
        println!("full-link       : {:+.2}% E2E overhead", full_link * 100.0);
        println!();
    }
}
