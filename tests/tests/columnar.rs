//! Columnar-storage suite: PAG2 wire round-trips under hostile inputs
//! and the serial-vs-parallel identity of the graph algorithms on a real
//! workload PAG.

use proptest::prelude::*;

use pag::serialize::{decode, encode};
use pag::{keys, mkeys, EdgeLabel, Pag, VertexId, VertexLabel, ViewKind};
use perflow::PerFlow;
use simrt::RunConfig;

// --------------------------------------------------------------- proptests

/// Vertex names the wire format must survive: empty, quoted, unicode,
/// whitespace-laden, and plain identifier-ish ones.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("with \"quotes\" and \\escapes".to_string()),
        Just("λ→graph ∀v".to_string()),
        Just("tab\there\nnewline".to_string()),
        "[a-zA-Z_][a-zA-Z0-9_.:]{0,12}",
    ]
}

/// Metric values including the non-finite corners.
fn arb_metric() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0),
        0.0..1e7f64,
    ]
}

type VertexSpec = (String, Option<f64>, Option<i64>, Option<Vec<f64>>);

#[derive(Debug, Clone)]
struct GraphSpec {
    vertices: Vec<VertexSpec>,
    edges: Vec<(usize, usize)>,
}

fn arb_graph() -> impl Strategy<Value = GraphSpec> {
    let vertex = (
        arb_name(),
        prop::option::of(arb_metric()),
        prop::option::of(0i64..1_000_000),
        prop::option::of(prop::collection::vec(arb_metric(), 1..5)),
    );
    prop::collection::vec(vertex, 1..16).prop_flat_map(|vertices| {
        let n = vertices.len();
        (Just(vertices), prop::collection::vec((0..n, 0..n), 0..24))
            .prop_map(|(vertices, edges)| GraphSpec { vertices, edges })
    })
}

fn build(spec: &GraphSpec) -> Pag {
    let mut g = Pag::new(ViewKind::Parallel, "columnar-prop");
    for (name, time, count, vec) in &spec.vertices {
        let v = g.add_vertex(VertexLabel::Compute, name.as_str());
        if let Some(t) = time {
            g.set_metric(v, mkeys::TIME, *t);
        }
        if let Some(c) = count {
            g.set_metric_i64(v, mkeys::COUNT, *c);
        }
        if let Some(xs) = vec {
            g.set_metric_vec(v, mkeys::TIME_PER_PROC, xs.clone());
        }
    }
    for (a, b) in &spec.edges {
        g.add_edge(
            VertexId(*a as u32),
            VertexId(*b as u32),
            EdgeLabel::IntraProc,
        );
    }
    g
}

/// Bit-exact metric comparison (NaN-aware).
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode → decode preserves the graph exactly, even with hostile
    /// names, NaN/±inf metrics and absent columns, and re-encoding the
    /// decoded graph is byte-stable.
    #[test]
    fn pag2_roundtrip_preserves_hostile_graphs(spec in arb_graph()) {
        let g = build(&spec);
        let v2 = encode(&g);
        let d2 = decode(&v2).unwrap();
        prop_assert_eq!(encode(&d2), v2);

        prop_assert_eq!(d2.num_vertices(), g.num_vertices());
        prop_assert_eq!(d2.num_edges(), g.num_edges());
        for v in g.vertex_ids() {
            prop_assert_eq!(d2.vertex_name(v), g.vertex_name(v));
            prop_assert!(same_bits(
                d2.metric_f64(v, mkeys::TIME),
                g.metric_f64(v, mkeys::TIME)
            ));
            prop_assert_eq!(
                d2.metric_i64(v, mkeys::COUNT),
                g.metric_i64(v, mkeys::COUNT)
            );
            let a = g.metric_vec(v, mkeys::TIME_PER_PROC);
            let b = d2.metric_vec(v, mkeys::TIME_PER_PROC);
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        prop_assert!(same_bits(*x, *y));
                    }
                }
                _ => prop_assert!(false, "vector column presence changed"),
            }
        }
    }
}

// ------------------------------------------- parallel identity (workload)

fn chain_pattern() -> graphalgo::Pattern {
    let mut p = graphalgo::Pattern::new();
    let x = p.add_vertex(graphalgo::PatternVertex::any());
    let y = p.add_vertex(graphalgo::PatternVertex::any());
    let z = p.add_vertex(graphalgo::PatternVertex::any());
    p.add_edge(x, y, None);
    p.add_edge(y, z, None);
    p
}

/// On a real workload's parallel view, every parallel algorithm is
/// bit-identical to its serial form for any worker count.
#[test]
fn parallel_algorithms_match_serial_on_workload_pag() {
    let pflow = PerFlow::new();
    let run = pflow
        .run(&workloads::cg(), &RunConfig::new(8).with_seed(7))
        .expect("run failed");
    let g = run.parallel();

    // Louvain's identity contract is parallel(w) == parallel(1): the
    // workload's parallel view has one component per rank, and sharded
    // clustering uses per-component edge mass (see louvain_parallel docs),
    // so the serial whole-graph result may legitimately differ here.
    let baseline = graphalgo::louvain_parallel(g, 1);
    assert!(baseline.count > 1, "workload PAG clusters into communities");
    for w in [2usize, 4, 9] {
        let par = graphalgo::louvain_parallel(g, w);
        assert_eq!(par.assignment, baseline.assignment, "louvain w={w}");
        assert_eq!(par.count, baseline.count);
        assert!(same_bits(par.modularity, baseline.modularity));
    }

    let pattern = chain_pattern();
    let serial = graphalgo::match_subgraph(g, &pattern, None, 0);
    assert!(!serial.is_empty(), "chain pattern matches the workload PAG");
    for w in [1usize, 2, 4, 9] {
        let par = graphalgo::match_subgraph_parallel(g, &pattern, None, 0, w);
        assert_eq!(par, serial, "subgraph w={w}");
    }
    // Capped matching returns the serial prefix.
    let cap = serial.len().min(5);
    let capped = graphalgo::match_subgraph_parallel(g, &pattern, None, cap, 3);
    assert_eq!(capped, serial[..cap].to_vec());

    // Differential analysis against a perturbed twin of the same run.
    let mut twin = g.clone();
    for v in twin.vertex_ids().collect::<Vec<_>>() {
        let t = twin.metric_f64(v, mkeys::TIME);
        twin.set_metric(v, mkeys::TIME, t * 1.07);
    }
    let metrics = [keys::TIME, keys::SELF_TIME, keys::WAIT_TIME];
    let serial = graphalgo::graph_difference(g, &twin, &metrics).unwrap();
    for w in [1usize, 2, 4, 9] {
        let par = graphalgo::graph_difference_parallel(g, &twin, &metrics, w).unwrap();
        assert_eq!(encode(&par), encode(&serial), "diff w={w}");
    }
}
