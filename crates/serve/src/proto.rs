//! The wire protocol: line-delimited flat JSON over TCP.
//!
//! Every frame is one `\n`-terminated flat JSON object written and read
//! with the workspace's [`vtq::jsonl`] codec — the same closed format
//! every persisted artifact uses, so a torn frame (a client killed
//! mid-write) is detected like any torn JSONL tail: the line
//! does not parse and the server answers with a typed `bad_request`
//! instead of crashing or hanging.
//!
//! Requests carry a `"req"` discriminant; responses a `"resp"` one;
//! streamed progress a `"event"` one. Unknown fields are ignored (both
//! sides), so the format can grow without lockstep upgrades.

use std::time::Duration;

use gpusim::TraversalPolicy;
use rtscene::lumibench::SceneId;
use vtq::jsonl::{parse_line, Fields, Record};

/// Reasons a submission is rejected, as stable wire strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded job queue is full; resubmit after backoff.
    Overloaded,
    /// The tenant already has its quota of queued + running jobs.
    QuotaExceeded,
    /// The frame was malformed or referenced an unknown scene/policy.
    BadRequest,
    /// The client's expected config fingerprint does not match the
    /// server's (version/config skew between client and daemon).
    FingerprintMismatch,
    /// The server is draining for shutdown and admits nothing new.
    ShuttingDown,
}

impl RejectReason {
    /// The stable wire string.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::Overloaded => "overloaded",
            RejectReason::QuotaExceeded => "quota",
            RejectReason::BadRequest => "bad_request",
            RejectReason::FingerprintMismatch => "fingerprint_mismatch",
            RejectReason::ShuttingDown => "shutting_down",
        }
    }

    /// Parses the wire string back.
    pub fn parse(s: &str) -> Option<RejectReason> {
        Some(match s {
            "overloaded" => RejectReason::Overloaded,
            "quota" => RejectReason::QuotaExceeded,
            "bad_request" => RejectReason::BadRequest,
            "fingerprint_mismatch" => RejectReason::FingerprintMismatch,
            "shutting_down" => RejectReason::ShuttingDown,
            _ => return None,
        })
    }
}

/// What a client can ask of the daemon. One request per line; the
/// response (and, for watched submits, a stream of events) comes back on
/// the same connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a sweep job.
    Submit(SubmitSpec),
    /// Job status by id, or the whole-service summary without an id.
    Status {
        /// Job id from an earlier `accepted` response; `None` = summary.
        job: Option<String>,
    },
    /// Cooperatively cancel a queued or running job.
    Cancel {
        /// Job id to cancel.
        job: String,
    },
    /// Re-fetch the per-cell results of a finished job (served from the
    /// persistent result cache, so this works across daemon restarts).
    Results {
        /// Job id to fetch.
        job: String,
    },
    /// Drain in-flight work and exit cleanly.
    Shutdown,
}

/// A job submission: which cells to run and under what guardrails.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    /// Tenant name for quota accounting.
    pub tenant: String,
    /// Scenes to sweep.
    pub scenes: Vec<SceneId>,
    /// Traversal policies per scene (labels: `baseline`, `prefetch`,
    /// `vtq`).
    pub policies: Vec<TraversalPolicy>,
    /// Use the reduced `ExperimentConfig::quick()` base configuration.
    pub quick: bool,
    /// Optional resolution override.
    pub res: Option<u32>,
    /// Optional detail-divisor override (tests use large divisors).
    pub detail: Option<u32>,
    /// Wall-clock deadline; an expired job stops at the next cell
    /// boundary, and its unstarted cells settle `interrupted`.
    pub deadline: Option<Duration>,
    /// Client's expected config fingerprint; the server rejects on
    /// mismatch so a skewed client never burns daemon compute.
    pub expect_fingerprint: Option<u64>,
    /// Stream per-cell `event` frames before the terminal response.
    pub watch: bool,
}

impl Default for SubmitSpec {
    fn default() -> SubmitSpec {
        SubmitSpec {
            tenant: "anon".to_string(),
            scenes: vec![SceneId::Ref],
            policies: vec![TraversalPolicy::Baseline],
            quick: true,
            res: None,
            detail: None,
            deadline: None,
            expect_fingerprint: None,
            watch: false,
        }
    }
}

/// Parses a policy label into its default-parameter policy.
pub fn parse_policy(label: &str) -> Option<TraversalPolicy> {
    Some(match label {
        "baseline" => TraversalPolicy::Baseline,
        "prefetch" => TraversalPolicy::TreeletPrefetch,
        "vtq" => TraversalPolicy::Vtq(gpusim::VtqParams::default()),
        _ => return None,
    })
}

/// Parses a scene name (case-insensitive, e.g. `REF`).
pub fn parse_scene(name: &str) -> Option<SceneId> {
    SceneId::ALL_WITH_EXTRAS.into_iter().find(|s| s.name().eq_ignore_ascii_case(name))
}

/// An optional string field; absent and malformed read the same.
fn opt_str(f: &Fields<'_>, key: &str) -> Option<String> {
    f.str(key).ok().map(|s| s.into_owned())
}

impl Request {
    /// Serializes the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let (req, job) = match self {
            Request::Submit(spec) => return spec.to_line(),
            Request::Status { job } => ("status", job.as_deref()),
            Request::Cancel { job } => ("cancel", Some(job.as_str())),
            Request::Results { job } => ("results", Some(job.as_str())),
            Request::Shutdown => ("shutdown", None),
        };
        let r = Record::tagged("req", req);
        match job {
            Some(job) => r.str("job", job),
            None => r,
        }
        .finish()
    }

    /// Parses one wire line. `Err` carries a human-readable reason the
    /// server echoes inside its `bad_request` rejection.
    pub fn parse(line: &str) -> Result<Request, String> {
        // A complete frame is one flat JSON object; a line that does not
        // close its brace was torn mid-write and must never be acted on.
        let f = parse_line(line).map_err(|e| format!("torn or non-JSON frame: {e}"))?;
        let req = f.str("req").map_err(|_| "missing or torn `req` field".to_string())?;
        match req.as_ref() {
            "submit" => SubmitSpec::parse(&f).map(Request::Submit),
            "status" => Ok(Request::Status { job: opt_str(&f, "job") }),
            "cancel" => {
                Ok(Request::Cancel { job: opt_str(&f, "job").ok_or("cancel needs a `job`")? })
            }
            "results" => {
                Ok(Request::Results { job: opt_str(&f, "job").ok_or("results needs a `job`")? })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request `{other}`")),
        }
    }
}

impl SubmitSpec {
    fn to_line(&self) -> String {
        let comma = |names: Vec<&str>| names.join(",");
        let mut r = Record::tagged("req", "submit")
            .str("tenant", &self.tenant)
            .str("scenes", comma(self.scenes.iter().map(|s| s.name()).collect()))
            .str("policies", comma(self.policies.iter().map(|p| p.label()).collect()))
            .num("quick", u8::from(self.quick))
            .num("watch", u8::from(self.watch));
        if let Some(res) = self.res {
            r = r.num("res", res);
        }
        if let Some(detail) = self.detail {
            r = r.num("detail", detail);
        }
        if let Some(deadline) = self.deadline {
            r = r.num("deadline_ms", deadline.as_millis());
        }
        if let Some(fp) = self.expect_fingerprint {
            r = r.str("expect_fingerprint", format_args!("{fp:016x}"));
        }
        r.finish()
    }

    /// Absent fields take their defaults; unknown ones are ignored.
    fn parse(f: &Fields<'_>) -> Result<SubmitSpec, String> {
        let mut spec = SubmitSpec {
            tenant: opt_str(f, "tenant").unwrap_or_else(|| "anon".to_string()),
            quick: f.bool("quick").unwrap_or(true),
            watch: f.bool("watch").unwrap_or(false),
            res: f.num("res").ok(),
            detail: f.num("detail").ok(),
            deadline: f.u64("deadline_ms").ok().map(Duration::from_millis),
            ..SubmitSpec::default()
        };
        if let Ok(list) = f.str("scenes") {
            spec.scenes = list
                .split(',')
                .map(|name| parse_scene(name).ok_or_else(|| format!("unknown scene `{name}`")))
                .collect::<Result<_, _>>()?;
        }
        if let Ok(list) = f.str("policies") {
            spec.policies = list
                .split(',')
                .map(|name| parse_policy(name).ok_or_else(|| format!("unknown policy `{name}`")))
                .collect::<Result<_, _>>()?;
        }
        if f.get("expect_fingerprint").is_some() {
            spec.expect_fingerprint = Some(f.hex64("expect_fingerprint")?);
        }
        if spec.scenes.is_empty() || spec.policies.is_empty() {
            return Err("empty scene or policy list".to_string());
        }
        Ok(spec)
    }
}

/// A server frame: either a one-shot response or a streamed event. The
/// server renders these; clients pattern-match on the parsed form.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Submission accepted; `job` is the handle for status/cancel and
    /// `fingerprint` the server-computed config fingerprint.
    Accepted {
        /// Job id.
        job: String,
        /// Policy-normalized config fingerprint of the job's config.
        fingerprint: u64,
        /// Total cells in the job's matrix.
        cells: usize,
    },
    /// Submission (or other request) refused, with a typed reason.
    Rejected {
        /// Why.
        reason: RejectReason,
        /// Human-readable detail.
        detail: String,
    },
    /// Status of one job (also the terminal frame of a watched submit).
    Status {
        /// Job id.
        job: String,
        /// Job state label (see `jobs::JobState`).
        state: String,
        /// Cells settled so far (done + cached + failed + quarantined).
        done_cells: usize,
        /// Total cells.
        total_cells: usize,
        /// Cells served from the persistent result cache.
        cached_cells: usize,
        /// Cells that panicked (including quarantined ones).
        failed_cells: usize,
    },
    /// Whole-service summary.
    Summary {
        /// Jobs currently queued.
        queued: usize,
        /// Jobs currently running.
        running: usize,
        /// Jobs finished (any terminal state) since daemon start.
        finished: usize,
        /// Distinct quarantined cell keys.
        poisoned: usize,
    },
    /// One per-cell progress event (streamed while `watch` is set).
    CellEvent {
        /// Owning job id.
        job: String,
        /// Cell label (`SCENE/policy`).
        label: String,
        /// `done`, `cached`, `failed`, `quarantined` or `interrupted`.
        status: String,
        /// Simulated cycles (0 when unavailable).
        cycles: u64,
        /// Rays completed (0 when unavailable).
        rays: u64,
    },
    /// One per-cell result record (the `results` reply body).
    CellResult(CellRecord),
    /// Terminates a `results` body.
    ResultsEnd {
        /// Number of `CellResult` frames that preceded.
        cells: usize,
    },
    /// Acknowledges `shutdown`.
    ShuttingDown,
}

/// The persistent, cacheable outcome of one cell — the same record shape
/// the result cache stores on disk, so a `results` reply is literally a
/// replay of cache entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Scene name.
    pub scene: String,
    /// Cell label (`SCENE/policy`).
    pub label: String,
    /// Content-address: `cell_key_fingerprint` of the cell.
    pub fingerprint: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Rays completed.
    pub rays: u64,
    /// Ray-box intersection tests.
    pub box_tests: u64,
    /// Ray-triangle intersection tests.
    pub tri_tests: u64,
}

impl CellRecord {
    /// Renders the flat cache/wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        Record::new("cell_result")
            .str("scene", &self.scene)
            .str("label", &self.label)
            .str("fingerprint", format_args!("{:016x}", self.fingerprint))
            .num("cycles", self.cycles)
            .num("rays", self.rays)
            .num("box_tests", self.box_tests)
            .num("tri_tests", self.tri_tests)
            .finish()
    }

    /// Parses a line rendered by [`to_line`](Self::to_line); `None` for
    /// non-`cell_result` records or torn lines.
    pub fn parse(line: &str) -> Option<CellRecord> {
        CellRecord::from_fields(&parse_line(line).ok()?)
    }

    fn from_fields(f: &Fields<'_>) -> Option<CellRecord> {
        if f.record() != Some("cell_result") {
            return None;
        }
        Some(CellRecord {
            scene: opt_str(f, "scene")?,
            label: opt_str(f, "label")?,
            fingerprint: f.hex64("fingerprint").ok()?,
            cycles: f.u64("cycles").ok()?,
            rays: f.u64("rays").ok()?,
            box_tests: f.u64("box_tests").ok()?,
            tri_tests: f.u64("tri_tests").ok()?,
        })
    }
}

impl Frame {
    /// Serializes the frame as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let resp = |kind| Record::tagged("resp", kind);
        match self {
            Frame::Accepted { job, fingerprint, cells } => resp("accepted")
                .str("job", job)
                .str("fingerprint", format_args!("{fingerprint:016x}"))
                .num("cells", cells),
            Frame::Rejected { reason, detail } => {
                resp("rejected").str("reason", reason.label()).str("detail", detail)
            }
            Frame::Status { job, state, done_cells, total_cells, cached_cells, failed_cells } => {
                resp("status")
                    .str("job", job)
                    .str("state", state)
                    .num("done_cells", done_cells)
                    .num("total_cells", total_cells)
                    .num("cached_cells", cached_cells)
                    .num("failed_cells", failed_cells)
            }
            Frame::Summary { queued, running, finished, poisoned } => resp("summary")
                .num("queued", queued)
                .num("running", running)
                .num("finished", finished)
                .num("poisoned", poisoned),
            Frame::CellEvent { job, label, status, cycles, rays } => {
                Record::tagged("event", "cell")
                    .str("job", job)
                    .str("label", label)
                    .str("status", status)
                    .num("cycles", cycles)
                    .num("rays", rays)
            }
            Frame::CellResult(record) => return record.to_line(),
            Frame::ResultsEnd { cells } => resp("results_end").num("cells", cells),
            Frame::ShuttingDown => resp("shutting_down"),
        }
        .finish()
    }

    /// Parses one server line; `Err` carries the reason (torn frame,
    /// unknown discriminant). Absent counters read as 0.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let f = parse_line(line).map_err(|e| format!("torn frame `{line}`: {e}"))?;
        if let Some(record) = CellRecord::from_fields(&f) {
            return Ok(Frame::CellResult(record));
        }
        let text = |key: &str, torn: &str| opt_str(&f, key).ok_or_else(|| torn.to_string());
        let count = |key: &str| f.num::<usize>(key).unwrap_or(0);
        if f.get("event") == Some("cell") {
            return Ok(Frame::CellEvent {
                job: text("job", "torn event")?,
                label: text("label", "torn event")?,
                status: text("status", "torn event")?,
                cycles: f.u64("cycles").unwrap_or(0),
                rays: f.u64("rays").unwrap_or(0),
            });
        }
        let resp =
            f.str("resp").map_err(|_| format!("missing or torn `resp` field in `{line}`"))?;
        match resp.as_ref() {
            "accepted" => Ok(Frame::Accepted {
                job: text("job", "torn accepted frame")?,
                fingerprint: f.hex64("fingerprint").map_err(|_| "torn accepted frame")?,
                cells: count("cells"),
            }),
            "rejected" => Ok(Frame::Rejected {
                reason: f
                    .get("reason")
                    .and_then(RejectReason::parse)
                    .ok_or("torn rejected frame")?,
                detail: opt_str(&f, "detail").unwrap_or_default(),
            }),
            "status" => Ok(Frame::Status {
                job: text("job", "torn status frame")?,
                state: text("state", "torn status frame")?,
                done_cells: count("done_cells"),
                total_cells: count("total_cells"),
                cached_cells: count("cached_cells"),
                failed_cells: count("failed_cells"),
            }),
            "summary" => Ok(Frame::Summary {
                queued: count("queued"),
                running: count("running"),
                finished: count("finished"),
                poisoned: count("poisoned"),
            }),
            "results_end" => Ok(Frame::ResultsEnd { cells: count("cells") }),
            "shutting_down" => Ok(Frame::ShuttingDown),
            other => Err(format!("unknown response `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips() {
        let spec = SubmitSpec {
            tenant: "alice,with\"quotes".to_string(),
            scenes: vec![SceneId::Ref, SceneId::Bunny],
            policies: vec![parse_policy("baseline").unwrap(), parse_policy("vtq").unwrap()],
            quick: true,
            res: Some(16),
            detail: Some(64),
            deadline: Some(Duration::from_millis(1500)),
            expect_fingerprint: Some(0xdead_beef),
            watch: true,
        };
        let line = Request::Submit(spec.clone()).to_line();
        assert_eq!(Request::parse(&line).unwrap(), Request::Submit(spec));
    }

    #[test]
    fn control_requests_round_trip() {
        for req in [
            Request::Status { job: None },
            Request::Status { job: Some("j3".into()) },
            Request::Cancel { job: "j1".into() },
            Request::Results { job: "j2".into() },
            Request::Shutdown,
        ] {
            assert_eq!(Request::parse(&req.to_line()).unwrap(), req);
        }
    }

    #[test]
    fn torn_and_bogus_requests_are_typed_errors() {
        assert!(Request::parse("{\"req\":\"subm").is_err());
        assert!(Request::parse("not json at all").is_err());
        assert!(Request::parse("{\"req\":\"teleport\"}").is_err());
        assert!(Request::parse("{\"req\":\"cancel\"}").unwrap_err().contains("job"));
        let bad_scene = "{\"req\":\"submit\",\"scenes\":\"NOPE\"}";
        assert!(Request::parse(bad_scene).unwrap_err().contains("NOPE"));
    }

    #[test]
    fn frames_round_trip() {
        let frames = [
            Frame::Accepted { job: "j1".into(), fingerprint: 0xabc, cells: 4 },
            Frame::Rejected { reason: RejectReason::Overloaded, detail: "queue full (16)".into() },
            Frame::Status {
                job: "j1".into(),
                state: "running".into(),
                done_cells: 2,
                total_cells: 4,
                cached_cells: 1,
                failed_cells: 0,
            },
            Frame::Summary { queued: 1, running: 1, finished: 7, poisoned: 2 },
            Frame::CellEvent {
                job: "j1".into(),
                label: "REF/vtq".into(),
                status: "done".into(),
                cycles: 123,
                rays: 456,
            },
            Frame::CellResult(CellRecord {
                scene: "REF".into(),
                label: "REF/baseline".into(),
                fingerprint: 0x1234,
                cycles: 9,
                rays: 8,
                box_tests: 7,
                tri_tests: 6,
            }),
            Frame::ResultsEnd { cells: 3 },
            Frame::ShuttingDown,
        ];
        for frame in frames {
            assert_eq!(Frame::parse(&frame.to_line()).unwrap(), frame, "{}", frame.to_line());
        }
    }
}
