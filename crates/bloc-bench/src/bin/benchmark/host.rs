//! The host record every benchmark output carries, and the process's
//! peak resident set.

use bloc_obs::json::Json;

/// What the numbers were measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// CPUs the kernel has online (what `nproc --all` counts), when known.
    pub nproc: Option<usize>,
    /// Threads this process may run at once (affinity and cgroup limits).
    pub available_parallelism: usize,
    /// The SIMD backend the likelihood and sounding kernels dispatch to.
    pub simd_level: &'static str,
    /// The `BLOC_NO_SIMD` override, when set.
    pub bloc_no_simd: Option<String>,
    /// The CPU model string, when known.
    pub cpu_model: Option<String>,
}

impl Host {
    /// Reads the record from the running system.
    pub fn detect() -> Self {
        let read = |path: &str| std::fs::read_to_string(path).ok();
        Self {
            nproc: read("/sys/devices/system/cpu/online").and_then(|s| count_cpu_list(&s)),
            available_parallelism: bloc_num::par::max_threads(),
            simd_level: bloc_num::simd::active_level().label(),
            bloc_no_simd: std::env::var("BLOC_NO_SIMD").ok(),
            cpu_model: read("/proc/cpuinfo").and_then(|s| cpu_model(&s)),
        }
    }

    /// One human-readable line.
    pub fn render(&self) -> String {
        format!(
            "nproc={} available_parallelism={} simd={} BLOC_NO_SIMD={} cpu=\"{}\"",
            self.nproc.map_or("unknown".into(), |n| n.to_string()),
            self.available_parallelism,
            self.simd_level,
            self.bloc_no_simd.as_deref().unwrap_or("unset"),
            self.cpu_model.as_deref().unwrap_or("unknown"),
        )
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        let opt = |s: &Option<String>| s.clone().map_or(Json::Null, Json::Str);
        Json::obj([
            (
                "nproc",
                self.nproc.map_or(Json::Null, |n| Json::Num(n as f64)),
            ),
            (
                "available_parallelism",
                Json::Num(self.available_parallelism as f64),
            ),
            ("simd_level", Json::Str(self.simd_level.into())),
            ("bloc_no_simd", opt(&self.bloc_no_simd)),
            ("cpu_model", opt(&self.cpu_model)),
        ])
    }
}

/// Counts the CPUs in a kernel CPU list such as `0-3,8,10-11`.
fn count_cpu_list(list: &str) -> Option<usize> {
    list.trim().split(',').try_fold(0usize, |n, part| {
        let span = match part.split_once('-') {
            Some((lo, hi)) => hi.parse::<usize>().ok()?.checked_sub(lo.parse().ok()?)? + 1,
            None => part.parse::<usize>().map(|_| 1).ok()?,
        };
        Some(n + span)
    })
}

/// The first `model name` in `/proc/cpuinfo` text.
fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The peak resident set (`VmHWM`) in kB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

/// This process's peak resident set so far, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kilobytes() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  912344 kB\nVmHWM:\t   48128 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(48128));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t garbage kB\n"), None);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }

    #[test]
    fn cpu_lists_and_models_parse() {
        assert_eq!(count_cpu_list("0-1\n"), Some(2));
        assert_eq!(count_cpu_list("0-3,8,10-11"), Some(7));
        assert_eq!(count_cpu_list("3-1"), None);
        assert_eq!(count_cpu_list("x"), None);
        let info = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nprocessor\t: 1\n";
        assert_eq!(cpu_model(info).as_deref(), Some("Example CPU @ 2.0GHz"));
        assert_eq!(cpu_model("processor\t: 0\n"), None);
    }

    #[test]
    fn host_record_names_every_field() {
        let host = Host {
            nproc: Some(2),
            available_parallelism: 2,
            simd_level: "avx2",
            bloc_no_simd: None,
            cpu_model: Some("Example CPU".into()),
        };
        assert_eq!(
            host.render(),
            "nproc=2 available_parallelism=2 simd=avx2 BLOC_NO_SIMD=unset cpu=\"Example CPU\""
        );
        let json = host.to_json();
        for key in [
            "nproc",
            "available_parallelism",
            "simd_level",
            "bloc_no_simd",
            "cpu_model",
        ] {
            assert!(json.get(key).is_some(), "host JSON lacks {key}");
        }
        let live = Host::detect();
        assert!(live.available_parallelism >= 1);
        assert!(["avx2", "scalar"].contains(&live.simd_level));
    }
}
