//! The host fingerprint printed with every result, so that numbers from
//! different machines or build profiles are never compared.

/// `{"nproc":…,"cpu":"…","profile":"…","os":"…","arch":"…"}`.
pub fn fingerprint_json() -> String {
    // The affinity mask, not `available_parallelism`, which reads cgroup
    // files outside the checkout.
    let nproc = crate::affinity::allowed().len().max(1);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"profile\":\"{profile}\",\"os\":\"{}\",\"arch\":\"{}\"}}",
        crate::json_string(&cpu_model()),
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

/// The processor's brand string, read with `cpuid` rather than from a
/// file so the benchmark reads nothing outside its checkout.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports which extended leaves may be queried; the
    // brand leaves are read only when reported present.
    #[allow(unused_unsafe)]
    // SAFETY: `cpuid` exists on every x86_64 processor and only reads
    // identification registers.
    let brand = unsafe {
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown".to_string();
        }
        let mut bytes = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                bytes.extend_from_slice(&reg.to_le_bytes());
            }
        }
        bytes
    };
    String::from_utf8_lossy(&brand)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}
