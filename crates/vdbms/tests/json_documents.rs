//! The JSON documents `vr-vdbms` emits — plan trees and the
//! calibration profile — pinned byte for byte. The constants were
//! captured on the commit before `vr_base::json` replaced the
//! hand-rolled renderers; each must also be a document the strict
//! parser accepts.

use vr_base::json;
use vr_vdbms::pipeline::{PipelineMetrics, StageKind};
use vr_vdbms::query::{QueryInstance, QuerySpec};
use vr_vdbms::{CalibrationProfile, ExecContext, ReferenceEngine, Vdbms};

const PLAN: &str = "{\"op\": \"query\", \"detail\": \"Q2(c) engine=reference policy=streaming workers=1\", \"stage\": null, \"stats\": null, \"children\": [{\"op\": \"sink\", \"detail\": \"mode=stream\", \"stage\": \"sink\", \"stats\": null, \"children\": [{\"op\": \"encode\", \"detail\": \"constant-qp\", \"stage\": \"encode\", \"stats\": null, \"children\": [{\"op\": \"kernel\", \"detail\": \"detect_boxes(Vehicle)\", \"stage\": \"kernel\", \"stats\": null, \"children\": [{\"op\": \"scan:stream\", \"detail\": \"decode-on-read\", \"stage\": \"decode\", \"stats\": null, \"children\": []}]}]}]}]}\n";
const ANALYZED: &str = "{\"op\": \"query\", \"detail\": \"Q1 engine=reference policy=streaming workers=1\", \"stage\": null, \"stats\": {\"wall_nanos\": 10000, \"self_nanos\": 2500, \"frames_in\": 8, \"frames_out\": 8, \"bytes_in\": 512, \"bytes_out\": 512, \"invocations\": 0, \"allocs\": 0, \"alloc_bytes\": 0, \"peak_alloc_bytes\": 0}, \"children\": [{\"op\": \"sink\", \"detail\": \"mode=stream\", \"stage\": \"sink\", \"stats\": {\"wall_nanos\": 7500, \"self_nanos\": 500, \"frames_in\": 8, \"frames_out\": 8, \"bytes_in\": 512, \"bytes_out\": 512, \"invocations\": 1, \"allocs\": 0, \"alloc_bytes\": 0, \"peak_alloc_bytes\": 0}, \"children\": [{\"op\": \"encode\", \"detail\": \"constant-qp\", \"stage\": \"encode\", \"stats\": {\"wall_nanos\": 7000, \"self_nanos\": 1000, \"frames_in\": 8, \"frames_out\": 8, \"bytes_in\": 0, \"bytes_out\": 512, \"invocations\": 1, \"allocs\": 0, \"alloc_bytes\": 0, \"peak_alloc_bytes\": 0}, \"children\": [{\"op\": \"kernel\", \"detail\": \"crop+temporal-select\", \"stage\": \"kernel\", \"stats\": {\"wall_nanos\": 6000, \"self_nanos\": 2000, \"frames_in\": 8, \"frames_out\": 8, \"bytes_in\": 1024, \"bytes_out\": 0, \"invocations\": 1, \"allocs\": 0, \"alloc_bytes\": 0, \"peak_alloc_bytes\": 0}, \"children\": [{\"op\": \"scan:stream\", \"detail\": \"decode-on-read\", \"stage\": \"decode\", \"stats\": {\"wall_nanos\": 4000, \"self_nanos\": 4000, \"frames_in\": 0, \"frames_out\": 8, \"bytes_in\": 0, \"bytes_out\": 1024, \"invocations\": 1, \"allocs\": 0, \"alloc_bytes\": 0, \"peak_alloc_bytes\": 0}, \"children\": []}]}]}]}]}\n";
const BUILTIN_PROFILE: &str = "{\n  \"version\": 2,\n  \"samples\": 0,\n  \"observed_error\": 0.000000,\n  \"scale\": 1.000000,\n  \"decode_ns_per_pixel\": 3.800000,\n  \"encode_ns_per_pixel\": 12.500000,\n  \"scan_ns_per_frame\": 2000.000000,\n  \"sink_ns_per_frame\": 2000.000000,\n  \"kernel_ns_per_pixel\": 1.600000,\n  \"gate_ns_per_pixel\": 1.000000,\n  \"nn_ns_per_mac\": 0.370000,\n  \"cascade_skip_rate\": 0.600000,\n  \"thread_spawn_ns\": 200000.000000,\n  \"parallel_efficiency\": 0.750000,\n  \"index_probe_ns_per_vector\": 250.000000,\n  \"index_build_ns_per_vector\": 40000.000000\n}\n";

fn instance(spec: QuerySpec) -> QueryInstance {
    QueryInstance { index: 0, spec, inputs: vec![0] }
}

#[test]
fn plan_json_with_and_without_stats() {
    let ctx = ExecContext { workers: 1, ..ExecContext::default() };
    let q2c = instance(QuerySpec::Q2c { class: vr_scene::ObjectClass::Vehicle });
    assert_eq!(ReferenceEngine::new().plan(&q2c, &ctx).render_json(), PLAN);

    let metrics = PipelineMetrics::default();
    metrics.record(StageKind::Decode, 4_000, 8, 1_024);
    metrics.record(StageKind::Kernel, 2_000, 8, 0);
    metrics.record(StageKind::Encode, 1_000, 8, 512);
    metrics.record(StageKind::Sink, 500, 8, 512);
    let q1 = instance(QuerySpec::Q1 {
        rect: vr_geom::Rect::new(0, 0, 32, 32),
        t1: vr_base::Timestamp::ZERO,
        t2: vr_base::Timestamp::from_micros(500_000),
    });
    let mut analyzed = ReferenceEngine::new().plan(&q1, &ctx);
    analyzed.annotate(&metrics.snapshot(), 10_000);
    assert_eq!(analyzed.render_json(), ANALYZED);

    for doc in [PLAN, ANALYZED] {
        json::parse(doc).unwrap();
    }
}

/// The built-in profile renders as the hand-rolled serializer did, and
/// the committed profile survives read-then-write unchanged.
#[test]
fn calibration_profile_json_roundtrips() {
    let builtin = CalibrationProfile::builtin();
    assert_eq!(builtin.to_json(), BUILTIN_PROFILE);
    assert_eq!(CalibrationProfile::parse(BUILTIN_PROFILE).unwrap(), builtin);
    json::parse(BUILTIN_PROFILE).unwrap();
    let committed = include_str!("../../../results/optimizer_profile.json");
    assert_eq!(CalibrationProfile::parse(committed).unwrap().to_json(), committed);
}
