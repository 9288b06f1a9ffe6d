//! The system under test: every call the benchmark makes into the
//! workspace lives in this file, and the `use` lines below are the
//! compatibility surface later refactors must keep compiling (listed
//! again in README.md). The rest of the crate sees only the plain types
//! defined here.

use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use cs_accel::exec::Accelerator;
use cs_accel::pe::Activation;
use cs_accel::AccelConfig;
use cs_compress::config::ModelCompressionConfig;
use cs_compress::format::{FcLayerFormat, SharedIndexLayer};
use cs_compress::gate::{GateStats, PrescanBitmap};
use cs_compress::pipeline::prune_layer;
use cs_net::transport::read_frame;
use cs_net::{
    Client, ErrorCode, Frame, FrameAssembler, NetConfig, NetServer, Transport, DEFAULT_MAX_PAYLOAD,
};
use cs_nn::data::lif_spike_train;
use cs_nn::init::{self, ConvergenceProfile};
use cs_nn::spec::{LayerSpecKind, Model as ZooModel, NetworkSpec, Scale};
use cs_registry::{decode_model, encode_model, ModelArtifact};
use cs_serve::{
    CompiledLane, ExecBackend, InferRequest, InferResponse, ModelRegistry, ServableModel,
    ServeConfig, ServeError, Server, Ticket,
};
use cs_telemetry::{MonotonicClock, NoopRecorder, Recorder, Registry};

/// Output-group width of the shared-index format (`T_n` in the paper),
/// the value `ServableModel::from_spec` uses.
const GROUP_SIZE: usize = 16;

/// Name the model is registered and addressed under.
const MODEL_NAME: &str = "ledger";

/// Which network a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// The paper's MLP, 784-300-100-10.
    Mlp,
    /// AlexNet's fc6/fc7/fc8 at half width, 4608-2048-2048-500.
    AlexFc,
}

/// Which execution engine the server's workers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Sparse,
    Gated,
    Simulator,
}

/// Seconds each step of the paper pipeline took while building a model.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    pub materialize_s: f64,
    pub prune_s: f64,
    pub encode_s: f64,
    pub registry_encode_s: f64,
    pub registry_decode_s: f64,
    pub artifact_bytes: usize,
}

/// A compressed model as it comes back out of its CSMR container.
pub struct Model {
    servable: ServableModel,
}

/// Builds `net` through the paper pipeline — materialize → coarse prune
/// → shared-index encode, the steps of `ServableModel::from_spec` — then
/// round-trips it through a CSMR container, timing each step. `shrink`
/// divides the layer widths (tests only; the benchmark passes 1).
pub fn build_model(net: Net, seed: u64, shrink: usize) -> Result<(Model, BuildTimes), String> {
    let (zoo, base) = match net {
        Net::Mlp => (ZooModel::Mlp, 1),
        Net::AlexFc => (ZooModel::AlexNet, 2),
    };
    let scale = match base * shrink {
        1 => Scale::Full,
        f => Scale::Reduced(f),
    };
    let spec = NetworkSpec::model(zoo, scale);
    let cfg = ModelCompressionConfig::paper(zoo);
    let fcs: Vec<_> = spec
        .weighted_layers()
        .filter(|l| matches!(l.kind(), LayerSpecKind::Fc { .. }))
        .collect();
    let mut times = BuildTimes::default();
    let mut layers = Vec::with_capacity(fcs.len());
    for (i, layer) in fcs.iter().enumerate() {
        let lc = cfg.for_layer(layer);
        let profile = ConvergenceProfile::with_target_density(lc.target_density);
        let t = Instant::now();
        let weights = init::materialize(layer, &profile, seed.wrapping_add(i as u64));
        times.materialize_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mask = prune_layer(&weights, lc).map_err(|e| format!("prune: {e}"))?;
        times.prune_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let shared =
            SharedIndexLayer::from_fc(layer.name(), &weights, &mask, GROUP_SIZE, lc.quant_bits)
                .map_err(|e| format!("encode: {e}"))?;
        times.encode_s += t.elapsed().as_secs_f64();
        let act = if i + 1 == fcs.len() {
            Activation::None
        } else {
            Activation::Relu
        };
        layers.push((FcLayerFormat::Shared(shared), act));
    }
    let artifact = ModelArtifact {
        name: MODEL_NAME.to_string(),
        version: 1,
        layers,
    };
    let t = Instant::now();
    let bytes = encode_model(&artifact).map_err(|e| format!("CSMR encode: {e}"))?;
    times.registry_encode_s = t.elapsed().as_secs_f64();
    times.artifact_bytes = bytes.len();
    let t = Instant::now();
    let decoded = decode_model(&bytes).map_err(|e| format!("CSMR decode: {e}"))?;
    times.registry_decode_s = t.elapsed().as_secs_f64();
    let servable = ServableModel::from_layers(decoded.name, decoded.layers)
        .map_err(|e| format!("from_layers: {e}"))?;
    Ok((Model { servable }, times))
}

/// One LIF spike frame (≈ 3 % of positions active).
pub fn spike_input(len: usize, seed: u64) -> Vec<f32> {
    lif_spike_train(len, 20, 0.25, seed).as_slice().to_vec()
}

/// What the program must answer for one input.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub output_bits: Vec<u32>,
    /// Simulated cycles (0 on engine backends).
    pub cycles: u64,
    /// Simulated cycles stalled on DRAM (0 on engine backends).
    pub dram_stall_cycles: u64,
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

impl Model {
    pub fn n_in(&self) -> usize {
        self.servable.n_in
    }

    /// Multiply-accumulates one request costs: surviving synapses,
    /// computed from the layer formats, not measured.
    pub fn macs(&self) -> u64 {
        self.servable
            .layers
            .iter()
            .map(|(f, _)| f.surviving() as u64)
            .sum()
    }

    /// Compact weight bytes one request streams, computed likewise.
    pub fn weight_bytes(&self) -> u64 {
        self.servable
            .layers
            .iter()
            .map(|(f, _)| f.weight_bytes() as u64)
            .sum()
    }

    /// Reference answers, computed without the server: the dense twin
    /// lane for engine backends, a direct simulator run otherwise.
    pub fn expected(&self, backend: Backend, inputs: &[Vec<f32>]) -> Result<Vec<Expected>, String> {
        match backend {
            Backend::Sparse | Backend::Gated => {
                let dense = self.servable.dense_lane();
                inputs
                    .iter()
                    .map(|x| {
                        let out = dense.forward(x).map_err(|e| format!("dense lane: {e}"))?;
                        Ok(Expected {
                            output_bits: bits(&out),
                            cycles: 0,
                            dram_stall_cycles: 0,
                        })
                    })
                    .collect()
            }
            Backend::Simulator => {
                let sim = self.simulator();
                inputs.iter().map(|x| sim.run(x)).collect()
            }
        }
    }

    pub fn lanes(&self) -> Lanes {
        let t = Instant::now();
        let sparse = self.servable.sparse_lane();
        let compile_s = t.elapsed().as_secs_f64();
        Lanes {
            sparse,
            gated: self.servable.gated_lane(),
            dense: self.servable.dense_lane(),
            compile_s,
        }
    }

    pub fn simulator(&self) -> Simulator {
        Simulator {
            accel: Accelerator::new(AccelConfig::paper_default()),
            layers: self.servable.shared_layers(),
        }
    }
}

/// The three lanes of one model, for direct single-thread timing.
pub struct Lanes {
    sparse: CompiledLane,
    gated: CompiledLane,
    dense: CompiledLane,
    /// Seconds `sparse_lane()` took (what each hot load pays).
    pub compile_s: f64,
}

impl Lanes {
    pub fn sparse(&self, x: &[f32]) -> Vec<f32> {
        self.sparse.forward(x).expect("sparse lane cannot fail")
    }

    pub fn gated(&self, x: &[f32]) -> Vec<f32> {
        self.gated.forward(x).expect("gated lane cannot fail")
    }

    pub fn dense(&self, x: &[f32]) -> Vec<f32> {
        self.dense.forward(x).expect("input width was checked")
    }

    /// The input each sparse layer sees when the lane runs on `x`.
    pub fn layer_inputs(&self, x: &[f32]) -> Vec<Vec<f32>> {
        let mut inputs = Vec::with_capacity(self.sparse.layers.len());
        let mut cur = x.to_vec();
        for (i, layer) in self.sparse.layers.iter().enumerate() {
            let mut out = self.sparse_layer(i, &cur);
            for v in &mut out {
                *v = layer.activation.apply(*v);
            }
            inputs.push(std::mem::replace(&mut cur, out));
        }
        inputs
    }

    /// Layer `i`'s sparse kernel alone (no activation).
    pub fn sparse_layer(&self, i: usize, x: &[f32]) -> Vec<f32> {
        self.sparse.layers[i]
            .kernel
            .forward(x)
            .expect("sparse kernel cannot fail")
    }

    /// Share of input blocks the gated lane skipped on `x`, over all of
    /// its layers (a layer whose gate the cost model declined reports
    /// no blocks at all).
    pub fn gate_skip_fraction(&self, x: &[f32]) -> f64 {
        let mut total = GateStats::default();
        let mut cur = x.to_vec();
        for layer in &self.gated.layers {
            let (mut out, stats) = layer
                .kernel
                .forward_counted(&cur)
                .expect("gated kernel cannot fail");
            total.merge(stats.unwrap_or_default());
            for v in &mut out {
                *v = layer.activation.apply(*v);
            }
            cur = out;
        }
        total.skip_fraction()
    }
}

/// Share of aligned 8-wide blocks of `x` that are entirely `+0.0`.
pub fn zero_block_share(x: &[f32]) -> f64 {
    PrescanBitmap::scan(x, 8).stats().skip_fraction()
}

/// The accelerator simulator on one model, called directly.
pub struct Simulator {
    accel: Accelerator,
    layers: Vec<(SharedIndexLayer, Activation)>,
}

impl Simulator {
    pub fn run(&self, x: &[f32]) -> Result<Expected, String> {
        let run = self
            .accel
            .run_network(&self.layers, x)
            .map_err(|e| format!("run_network: {e}"))?;
        Ok(Expected {
            output_bits: bits(&run.outputs),
            cycles: run.stats.cycles,
            dram_stall_cycles: run.stats.dram_stall_cycles,
        })
    }
}

/// One reply as the client sees it.
#[derive(Debug, Clone)]
pub struct Reply {
    pub outputs: Vec<f32>,
    pub latency_us: u64,
    pub batch_size: u32,
    pub cycles: u64,
    pub energy_pj: f64,
}

impl Reply {
    fn from_response(r: InferResponse) -> Reply {
        Reply {
            outputs: r.outputs,
            latency_us: r.latency_us,
            batch_size: r.batch_size as u32,
            cycles: r.cycles,
            energy_pj: r.energy_pj,
        }
    }

    /// Whether the reply is bit-for-bit what was expected.
    pub fn matches(&self, want: &Expected) -> bool {
        self.cycles == want.cycles
            && self.outputs.len() == want.output_bits.len()
            && self
                .outputs
                .iter()
                .zip(&want.output_bits)
                .all(|(got, want)| got.to_bits() == *want)
    }
}

/// Why a request produced no reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The server refused it as overloaded.
    Refused,
    /// Anything else: transport, protocol or worker error.
    Error(String),
}

/// Worker threads of every server the benchmark starts.
pub const WORKERS: usize = 2;

/// Server shape shared by every workload (the ISSUE's fixed settings).
fn serve_config(backend: Backend) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        max_batch: 8,
        queue_depth: 256,
        backend: match backend {
            Backend::Sparse => ExecBackend::Sparse,
            Backend::Gated => ExecBackend::Gated,
            Backend::Simulator => ExecBackend::Simulator,
        },
        ..ServeConfig::default()
    }
}

enum Front {
    Inproc(Server),
    Net(NetServer),
}

/// A running server, in-process or behind the loopback reactor.
pub struct Sut {
    front: Front,
    telemetry: Option<Arc<Registry>>,
}

/// Counters read from the program's own telemetry at one instant;
/// subtract two to get a phase's figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct Telemetry {
    pub queue_wait_us_sum: u64,
    pub queue_wait_count: u64,
    pub batch_wait_us_sum: u64,
    pub batch_wait_count: u64,
    pub worker_busy_us: u64,
    pub worker_idle_us: u64,
    pub rejected: u64,
}

impl Sut {
    /// Starts a server for `model` the way `cs-netserve` does: a
    /// `Registry` recorder shared by the serving and network layers
    /// (`record = false` swaps in the no-op recorder).
    pub fn start(model: &Model, backend: Backend, net: bool, record: bool) -> Result<Sut, String> {
        let telemetry = record.then(|| Arc::new(Registry::new()));
        let recorder: Arc<dyn Recorder> = match &telemetry {
            Some(r) => r.clone(),
            None => Arc::new(NoopRecorder),
        };
        let mut models = ModelRegistry::new();
        models
            .register(model.servable.clone())
            .map_err(|e| format!("register: {e}"))?;
        let server = Server::start_with_recorder(
            models,
            serve_config(backend),
            Arc::new(MonotonicClock::new()),
            recorder.clone(),
        )
        .map_err(|e| format!("server start: {e}"))?;
        let front = if net {
            let cfg = NetConfig {
                transport: "reactor"
                    .parse::<Transport>()
                    .map_err(|e| format!("transport: {e}"))?,
                ..NetConfig::default()
            };
            Front::Net(
                NetServer::start_with_recorder(server, cfg, recorder)
                    .map_err(|e| format!("net start: {e}"))?,
            )
        } else {
            Front::Inproc(server)
        };
        Ok(Sut { front, telemetry })
    }

    fn server(&self) -> &Server {
        match &self.front {
            Front::Inproc(s) => s,
            Front::Net(n) => n.server(),
        }
    }

    pub fn is_net(&self) -> bool {
        matches!(self.front, Front::Net(_))
    }

    /// Opens one client connection: a socket when the server is behind
    /// the network frontend (unless `direct`), otherwise a handle on
    /// `Server::submit`.
    pub fn connect(&self, direct: bool) -> Result<(Tx<'_>, Rx), String> {
        match &self.front {
            Front::Net(net) if !direct => {
                let stream =
                    TcpStream::connect(net.local_addr()).map_err(|e| format!("connect: {e}"))?;
                stream
                    .set_nodelay(true)
                    .map_err(|e| format!("nodelay: {e}"))?;
                let read = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
                Ok((
                    Tx::Net(stream),
                    Rx::Net(BufReader::with_capacity(1 << 16, read)),
                ))
            }
            _ => {
                let (tx, rx) = mpsc::channel();
                Ok((Tx::Inproc(self.server(), tx), Rx::Inproc(rx)))
            }
        }
    }

    /// Round-trip times of `n` pings over a fresh connection, in µs
    /// (empty when the server has no network frontend).
    pub fn ping_rtts_us(&self, n: usize) -> Result<Vec<f64>, String> {
        let Front::Net(net) = &self.front else {
            return Ok(Vec::new());
        };
        let mut client =
            Client::connect(&net.local_addr().to_string()).map_err(|e| format!("ping: {e}"))?;
        (0..n)
            .map(|_| {
                let t = Instant::now();
                client.ping().map_err(|e| format!("ping: {e}"))?;
                Ok(t.elapsed().as_secs_f64() * 1e6)
            })
            .collect()
    }

    /// The program's own counters; all zero without a recorder or when
    /// a series is absent.
    pub fn telemetry(&self) -> Telemetry {
        let Some(reg) = &self.telemetry else {
            return Telemetry::default();
        };
        let hist = |name| {
            reg.find_histogram(name, &[])
                .map_or((0, 0), |h| (h.sum(), h.count()))
        };
        let per_worker = |name| -> u64 {
            (0..WORKERS)
                .filter_map(|w| reg.find_counter(name, &[("worker", &w.to_string())]))
                .map(|c| c.get())
                .sum()
        };
        let (queue_wait_us_sum, queue_wait_count) = hist("serve_queue_wait_us");
        let (batch_wait_us_sum, batch_wait_count) = hist("serve_batch_wait_us");
        Telemetry {
            queue_wait_us_sum,
            queue_wait_count,
            batch_wait_us_sum,
            batch_wait_count,
            worker_busy_us: per_worker("serve_worker_busy_us"),
            worker_idle_us: per_worker("serve_worker_idle_us"),
            rejected: reg
                .find_counter("serve_requests_rejected_total", &[])
                .map_or(0, |c| c.get()),
        }
    }

    /// Drains and stops the server, joining its threads.
    pub fn shutdown(self) {
        match self.front {
            Front::Inproc(s) => drop(s.shutdown()),
            Front::Net(n) => drop(n.shutdown()),
        }
    }
}

/// Sending half of a client connection.
pub enum Tx<'a> {
    Inproc(&'a Server, Sender<(u64, Result<Ticket, Failure>)>),
    Net(TcpStream),
}

/// Receiving half: replies arrive in the order requests were sent.
pub enum Rx {
    Inproc(Receiver<(u64, Result<Ticket, Failure>)>),
    Net(BufReader<TcpStream>),
}

impl Tx<'_> {
    /// Sends request `id`. Over a socket the return value is the
    /// instant between `Frame::encode` and the write, so a tracer can
    /// tell the two apart; in-process it is `None`.
    pub fn send(&mut self, id: u64, input: &[f32]) -> Result<Option<Instant>, Failure> {
        match self {
            Tx::Inproc(server, tickets) => {
                let ticket = server
                    .submit(InferRequest::new(MODEL_NAME, input.to_vec()))
                    .map_err(|e| match e {
                        ServeError::Overloaded { .. } => Failure::Refused,
                        other => Failure::Error(other.to_string()),
                    });
                // A refusal travels to the receiver like a reply, so
                // both halves keep counting the same requests.
                tickets
                    .send((id, ticket))
                    .map_err(|_| Failure::Error("receiver hung up".to_string()))?;
                Ok(None)
            }
            Tx::Net(stream) => {
                let bytes = Frame::Request {
                    id,
                    model: MODEL_NAME.to_string(),
                    tenant: String::new(),
                    input: input.to_vec(),
                }
                .encode();
                let encoded = Instant::now();
                stream
                    .write_all(&bytes)
                    .map_err(|e| Failure::Error(format!("write: {e}")))?;
                Ok(Some(encoded))
            }
        }
    }
}

impl Rx {
    /// Blocks for the next reply; `None` when the sender is gone.
    pub fn recv(&mut self) -> Option<(u64, Result<Reply, Failure>)> {
        match self {
            Rx::Inproc(tickets) => {
                let (id, ticket) = tickets.recv().ok()?;
                let reply = ticket.and_then(|t| {
                    t.wait()
                        .map(Reply::from_response)
                        .map_err(|e| Failure::Error(e.to_string()))
                });
                Some((id, reply))
            }
            Rx::Net(stream) => match read_frame(stream, DEFAULT_MAX_PAYLOAD) {
                Ok(Some(Frame::Response {
                    id,
                    outputs,
                    cycles,
                    energy_pj,
                    batch_size,
                    latency_us,
                    ..
                })) => Some((
                    id,
                    Ok(Reply {
                        outputs,
                        latency_us,
                        batch_size,
                        cycles,
                        energy_pj,
                    }),
                )),
                Ok(Some(Frame::Error {
                    id,
                    code: ErrorCode::Overloaded,
                    ..
                })) => Some((id, Err(Failure::Refused))),
                Ok(Some(Frame::Error { id, detail, .. })) => {
                    Some((id, Err(Failure::Error(detail))))
                }
                Ok(Some(other)) => Some((
                    other.id(),
                    Err(Failure::Error(format!(
                        "unexpected {:?} frame",
                        other.frame_type()
                    ))),
                )),
                Ok(None) => None,
                Err(e) => Some((0, Err(Failure::Error(format!("read: {e}"))))),
            },
        }
    }
}

/// The request and response frames of one exchange, for timing the
/// wire codec without a socket.
pub struct Codec {
    request: Frame,
    response: Frame,
    request_bytes: Vec<u8>,
    response_bytes: Vec<u8>,
    /// 64 request frames back to back, as a connection would carry them.
    stream: Vec<u8>,
}

/// Frames in [`Codec`]'s assembler stream.
pub const CODEC_STREAM_FRAMES: usize = 64;

impl Codec {
    pub fn new(input: &[f32], reply: &Reply) -> Codec {
        let request = Frame::Request {
            id: 1,
            model: MODEL_NAME.to_string(),
            tenant: String::new(),
            input: input.to_vec(),
        };
        let response = Frame::from_response(
            1,
            &InferResponse {
                model: MODEL_NAME.to_string(),
                outputs: reply.outputs.clone(),
                cycles: reply.cycles,
                energy_pj: reply.energy_pj,
                batch_size: reply.batch_size as usize,
                worker: 0,
                latency_us: reply.latency_us,
                node: ServeConfig::default().node,
            },
        );
        let request_bytes = request.encode();
        let response_bytes = response.encode();
        let stream = request_bytes.repeat(CODEC_STREAM_FRAMES);
        Codec {
            request,
            response,
            request_bytes,
            response_bytes,
            stream,
        }
    }

    /// Bytes one request and its reply put on the wire (computed from
    /// the encodings, exact).
    pub fn wire_bytes(&self) -> usize {
        self.request_bytes.len() + self.response_bytes.len()
    }

    pub fn encode_request(&self) -> usize {
        self.request.encode().len()
    }

    pub fn encode_response(&self) -> usize {
        self.response.encode().len()
    }

    pub fn decode_request(&self) -> u64 {
        Frame::decode_exact(&self.request_bytes, DEFAULT_MAX_PAYLOAD)
            .expect("own encoding decodes")
            .id()
    }

    pub fn decode_response(&self) -> u64 {
        Frame::decode_exact(&self.response_bytes, DEFAULT_MAX_PAYLOAD)
            .expect("own encoding decodes")
            .id()
    }

    /// Feeds the 64-frame stream to a `FrameAssembler` in 4 KiB chunks,
    /// as the reactor's reads would; returns the frames it produced.
    pub fn assemble_stream(&self) -> usize {
        let mut assembler = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        let mut frames = 0;
        for chunk in self.stream.chunks(4096) {
            assembler.push(chunk);
            while let Some(_frame) = assembler.next_frame().expect("own encoding decodes") {
                frames += 1;
            }
        }
        frames
    }
}
