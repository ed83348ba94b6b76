//! Model-level checkpoint format tests: `HisRes::save_checkpoint` output
//! must keep its documented envelope (v3 checksummed header, kind tag, a
//! JSON header line with config, vocabulary sizes and the tensor table,
//! then little-endian f32 sections), `load_checkpoint` must rebuild a
//! bit-identical model, and a v2 checkpoint (one JSON document) must load
//! to the same parameter bits as its v3 re-save.

use hisres::eval::{evaluate, Split};
use hisres::trainer::{train, HisResEval};
use hisres::{HisRes, HisResConfig, TrainConfig};
use hisres_data::synthetic::{generate, SyntheticConfig};
use hisres_data::DatasetSplits;
use hisres_util::fsio;
use hisres_util::json::{parse, ToJson, Value};

fn tiny_data(seed: u64) -> DatasetSplits {
    let cfg = SyntheticConfig {
        num_entities: 16,
        num_relations: 3,
        num_timestamps: 20,
        seed,
        ..Default::default()
    };
    DatasetSplits::from_tkg("tiny", "1 step", &generate(&cfg).tkg)
}

fn tiny_model(seed: u64) -> HisRes {
    let cfg = HisResConfig {
        dim: 8,
        conv_channels: 2,
        history_len: 3,
        seed,
        ..Default::default()
    };
    HisRes::new(&cfg, 16, 3)
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hisres_ckpt_{tag}_{}.json", std::process::id()))
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn checkpoint_envelope_keeps_its_documented_shape() {
    let model = tiny_model(21);
    let path = temp_path("envelope");
    model.save_checkpoint(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // one header line: MAGIC, version, kind, payload length, checksum
    let header = bytes.split(|&b| b == b'\n').next().unwrap();
    let header = std::str::from_utf8(header).unwrap();
    assert!(
        header.starts_with("HISRESCKPT v3 kind=model len="),
        "header changed: {header:?}"
    );
    assert!(header.contains(" crc="), "checksum field present: {header:?}");

    // the verified payload: a JSON header line, then one little-endian f32
    // section per tensor in the table's order
    let (version, payload) = fsio::open_bytes(&bytes, "model").unwrap();
    assert_eq!(version, 3);
    let nl = payload.iter().position(|&b| b == b'\n').unwrap();
    let v = parse(std::str::from_utf8(&payload[..nl]).unwrap()).unwrap();
    assert_eq!(v["num_entities"].as_u64(), Some(16));
    assert_eq!(v["num_relations"].as_u64(), Some(3));
    assert_eq!(v["config"]["dim"].as_u64(), Some(8));
    assert_eq!(v["config"]["global_aggregator"], "ConvGat");
    assert_eq!(
        hisres_util::json::to_string(&v["tensors"]).unwrap(),
        hisres_util::json::to_string(&model.store.tensor_table()).unwrap()
    );
    let sections: Vec<f32> = payload[nl + 1..]
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
        .collect();
    assert_eq!(payload[nl + 1..].len(), 4 * model.store.num_scalars());
    assert_eq!(bits(&sections), bits(&model.store.export_flat()));
}

/// Writes `model` in the v2 layout every checkpoint had before v3: one
/// JSON document with the config, the vocabulary sizes and the nested
/// decimal parameter table, in a v2 envelope.
fn save_v2(model: &HisRes, path: &std::path::Path) {
    let payload = Value::Obj(vec![
        ("config".to_owned(), model.cfg.to_json()),
        ("num_entities".to_owned(), model.num_entities().to_json()),
        ("num_relations".to_owned(), model.num_relations().to_json()),
        ("params".to_owned(), parse(&model.store.to_json()).unwrap()),
    ]);
    let sealed = fsio::seal("model", &payload.try_to_string().unwrap());
    assert!(sealed.starts_with("HISRESCKPT v2 kind=model len="));
    fsio::atomic_write(path, sealed.as_bytes()).unwrap();
}

#[test]
fn v2_checkpoint_and_its_v3_resave_load_to_identical_bits() {
    let data = tiny_data(24);
    let model = tiny_model(25);
    let tc = TrainConfig { epochs: 1, lr: 0.01, patience: 0, ..Default::default() };
    train(&model, &data, &tc).unwrap();
    let trained = bits(&model.store.export_flat());

    let (v2, v3) = (temp_path("golden_v2"), temp_path("golden_v3"));
    save_v2(&model, &v2);
    let from_v2 = HisRes::load_checkpoint(&v2).unwrap();
    from_v2.save_checkpoint(&v3).unwrap();
    let from_v3 = HisRes::load_checkpoint(&v3).unwrap();
    let v3_bytes = std::fs::read(&v3).unwrap();
    std::fs::remove_file(&v2).ok();
    std::fs::remove_file(&v3).ok();

    assert!(v3_bytes.starts_with(b"HISRESCKPT v3 kind=model len="));
    assert_eq!(bits(&from_v2.store.export_flat()), trained);
    assert_eq!(bits(&from_v3.store.export_flat()), trained);
    assert_eq!(from_v3.cfg, model.cfg);
    assert_eq!(from_v3.num_entities(), model.num_entities());
    assert_eq!(from_v3.num_relations(), model.num_relations());
}

#[test]
fn load_checkpoint_rebuilds_a_bit_identical_model() {
    let data = tiny_data(22);
    let model = tiny_model(23);
    let tc = TrainConfig { epochs: 2, lr: 0.01, patience: 0, ..Default::default() };
    train(&model, &data, &tc).unwrap();

    let path = temp_path("roundtrip");
    model.save_checkpoint(&path).unwrap();
    let restored = HisRes::load_checkpoint(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(model.store.to_json(), restored.store.to_json());
    let a = evaluate(&HisResEval { model: &model }, &data, Split::Test);
    let b = evaluate(&HisResEval { model: &restored }, &data, Split::Test);
    assert_eq!(a.mrr.to_bits(), b.mrr.to_bits());
    assert_eq!(a.hits, b.hits);
}

#[test]
fn load_checkpoint_rejects_foreign_formats() {
    // a pre-envelope (v1) bare-JSON checkpoint is not silently accepted
    let path = temp_path("badformat");
    std::fs::write(&path, r#"{"format":"some-other-checkpoint","config":{}}"#).unwrap();
    let err = match HisRes::load_checkpoint(&path) {
        Ok(_) => panic!("foreign format must be rejected"),
        Err(e) => e,
    };
    std::fs::remove_file(&path).ok();
    assert!(err.to_string().contains("checkpoint"), "got: {err}");
}

#[test]
fn load_checkpoint_rejects_training_state_files() {
    // a training-state envelope is valid fsio but the wrong species
    let path = temp_path("wrongkind");
    let sealed = fsio::seal("train-state", "{}");
    fsio::atomic_write(&path, sealed.as_bytes()).unwrap();
    let err = match HisRes::load_checkpoint(&path) {
        Ok(_) => panic!("training-state file must be rejected"),
        Err(e) => e,
    };
    std::fs::remove_file(&path).ok();
    assert!(err.to_string().contains("kind"), "got: {err}");
}
