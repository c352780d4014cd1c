"""Text-analysis + multimodal-stub stage tests."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from cesium_ray.stages.multimodal import MediaDecodeStub, decode_media, frame_sample
from cesium_ray.stages.text import (
    LangId,
    QualityScorer,
    bpe_ish_token_count,
    language_id,
    quality_score,
)


def test_langid():
    l = LangId()
    assert l.classify("the quick brown fox is in the garden and it is fine") == "en"
    assert l.classify("der hund ist nicht mit der katze und das ist gut") == "de"
    assert l.classify("xyzzy 12345 !!!") == "und"


def test_langid_stage():
    ds = ray.data.from_items(
        [{"doc_id": 1, "text": "the cat and the dog"},
         {"doc_id": 2, "text": "le chat et les chiens pour la vie"}]
    )
    out = language_id(ds).to_pandas().set_index("doc_id")["lang_pred"]
    assert out[1] == "en" and out[2] == "fr"


def test_quality_scorer():
    df = pd.DataFrame({"doc_id": [1], "text": ["The cat, the hat!! aa aa aa"]})
    out = QualityScorer()(df)
    assert out["token_count"].iloc[0] == 7
    assert 0 < out["punct_ratio"].iloc[0] < 0.5
    assert out["repetition_ratio"].iloc[0] > 0  # repeated 'aa'
    assert out["stopword_ratio"].iloc[0] > 0


def test_quality_stage_on_documents():
    ds = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet",
                               columns=["doc_id", "text"])
    out = quality_score(ds).to_pandas()
    assert {"n_chars", "token_count", "punct_ratio", "stopword_ratio"} <= set(out.columns)
    assert len(out) == ds.count()


def test_token_count():
    ds = ray.data.from_items([{"doc_id": 1, "text": "hello, world! it's 42"}])
    out = bpe_ish_token_count(ds).to_pandas()
    assert out["ws_tokens"].iloc[0] == 4
    assert out["bpe_ish_tokens"].iloc[0] == 8  # hello , world ! it ' s 42


def test_media_decode_stub_deterministic():
    stub = MediaDecodeStub(feature_dim=4)
    f1 = stub._decode_batch([b"payload-bytes"])[0]
    f2 = stub._decode_batch([b"payload-bytes"])[0]
    np.testing.assert_array_equal(f1, f2)
    assert len(f1) == 4 and ((0 <= f1) & (f1 < 1)).all()
    # arithmetic contract the SQL oracle relies on
    from cesium_ray.stages.dedup import _splitmix64, content_hash64
    base = content_hash64([b"payload-bytes"])[0]
    want = _splitmix64(base + np.arange(4, dtype=np.uint64))
    np.testing.assert_array_equal(f1, want.astype(np.float64) / 2**64)


def test_media_decode_stage():
    rows = [{"media_id": i, "media_type": "image/png",
             "payload": bytes([i]) * 100} for i in range(10)]
    ds = ray.data.from_items(rows)
    out = decode_media(ds, feature_dim=4, batch_size=4).to_pandas()
    assert len(out) == 10
    assert "payload" not in out.columns
    assert all(len(f) == 4 for f in out["features"])


def test_real_decoder_gated():
    with pytest.raises(NotImplementedError):
        MediaDecodeStub(real_decoder=True)


def test_frame_sample():
    ds = ray.data.from_items([{"frame_idx": i, "v": i} for i in range(30)])
    out = frame_sample(ds, every_n=10).to_pandas()
    assert sorted(out["frame_idx"]) == [0, 10, 20]


def test_curate_documents_flags(ray_session):
    """Composite curation: exact dup, near dup, short doc, repetitive
    doc, and non-profile-language doc are dropped; clean docs kept."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.pipelines.curate import curate_documents

    base = ("the data pipeline is that good and it works for a test "
            + " ".join(f"tok{i}" for i in range(60)))
    near = base[:-30] + " with a different ending here now"
    rows = [
        (0, base),                       # keeper
        (1, base),                       # exact dup of 0
        (2, near),                       # near dup of 0 (jaccard >= .7)
        (3, "short text"),               # too few tokens
        (4, ("spam " * 80).strip()),     # repetition_ratio ~ 1
        (5, "zzz qqq xxx vvv kkk " * 10),  # no stopwords -> 'und'
        (6, "the data engine is that good and it works for the test "
            "of a very long and unique document that should be kept "
            "in the final corpus because it is clean and it is long"),
    ]
    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": np.array([r[0] for r in rows], dtype=np.int64),
         "text": [r[1] for r in rows]}))
    out = (curate_documents(ds).to_pandas() .set_index("doc_id").sort_index())
    assert bool(out.loc[1, "is_exact_dup"]) and not bool(out.loc[0, "is_exact_dup"])
    assert bool(out.loc[2, "is_near_dup"]) and not bool(out.loc[2, "is_exact_dup"])
    assert not bool(out.loc[3, "keep"])          # short
    assert not bool(out.loc[4, "keep"])          # repetitive
    assert out.loc[5, "lang_pred"] == "und" and not bool(out.loc[5, "keep"])
    assert bool(out.loc[0, "keep"]) and bool(out.loc[6, "keep"])


def test_wav_roundtrip_bit_exact():
    """encode→decode recovers samples and rate bit-exactly; the
    decoder walks RIFF chunks (survives an interleaved LIST chunk) and
    rejects malformed/unsupported payloads."""
    import struct

    import numpy as np
    import pytest

    from cesium_ray.stages.multimodal import decode_wav_pcm16, encode_wav_pcm16

    rng = np.random.default_rng(5)
    s = rng.integers(-32768, 32768, size=777, dtype=np.int16)
    payload = encode_wav_pcm16(s, sample_rate=22050)
    rate, got = decode_wav_pcm16(payload)
    assert rate == 22050 and np.array_equal(got, s)

    # interleave an odd-sized unknown chunk between fmt and data
    fmt_end = 12 + 8 + 16
    extra = b"LIST" + struct.pack("<I", 3) + b"abc" + b"\x00"  # padded
    hacked = payload[:fmt_end] + extra + payload[fmt_end:]
    hacked = hacked[:4] + struct.pack("<I", len(hacked) - 8) + hacked[8:]
    rate2, got2 = decode_wav_pcm16(hacked)
    assert rate2 == 22050 and np.array_equal(got2, s)

    with pytest.raises(ValueError):
        decode_wav_pcm16(b"RIFFxxxxNOPE")
    with pytest.raises(ValueError):
        decode_wav_pcm16(payload[:20])


def test_wav_features_stage(ray_session):
    """Actor-pool decode over real wav payloads: exact integer-space
    features match a direct computation."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from cesium_ray.stages.multimodal import encode_wav_pcm16, wav_features

    rng = np.random.default_rng(9)
    rows = []
    for i in range(5):
        s = rng.integers(-2000, 2000, size=int(rng.integers(10, 500)),
                         dtype=np.int16)
        rows.append((i, s))
    tbl = pa.table({
        "media_id": pa.array([r[0] for r in rows], pa.int64()),
        "payload": pa.array([encode_wav_pcm16(r[1], 8000) for r in rows],
                            pa.binary()),
    })
    out = (wav_features(ray.data.from_arrow(tbl), batch_size=2).to_pandas()
           .set_index("media_id").sort_index())
    for i, s in rows:
        si = s.astype(np.int64)
        assert out.loc[i, "n_samples"] == len(s)
        assert out.loc[i, "sample_rate"] == 8000
        assert out.loc[i, "peak"] == int(np.abs(si).max())
        assert out.loc[i, "rms"] == float(np.sqrt(int((si * si).sum()) / len(s)))
        assert out.loc[i, "duration_s"] == len(s) / 8000.0


def test_ppm_roundtrip_and_features(ray_session):
    """P6 encode→decode roundtrip (incl. header comments) and exact
    channel means through the actor-pool stage."""
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray.data

    from cesium_ray.stages.multimodal import decode_ppm, encode_ppm, ppm_features

    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
    payload = encode_ppm(img)
    assert np.array_equal(decode_ppm(payload), img)

    # header with a comment line (real PPM grammar)
    commented = b"P6\n# made by a camera\n5 7\n255\n" + img.tobytes()
    assert np.array_equal(decode_ppm(commented), img)

    with pytest.raises(ValueError):
        decode_ppm(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        decode_ppm(payload[:-4])

    tbl = pa.table({
        "media_id": pa.array([0], pa.int64()),
        "payload": pa.array([payload], pa.binary()),
    })
    out = ppm_features(ray.data.from_arrow(tbl), batch_size=4).to_pandas()
    sums = img.reshape(-1, 3).astype(np.int64).sum(axis=0)
    assert out.loc[0, "width"] == 5 and out.loc[0, "height"] == 7
    assert out.loc[0, "n_pixels"] == 35
    assert out.loc[0, "mean_r"] == sums[0] / 35
    assert out.loc[0, "mean_g"] == sums[1] / 35
    assert out.loc[0, "mean_b"] == sums[2] / 35


def test_png_roundtrip_all_filters_and_features(ray_session):
    """Real PNG codec: bit-exact roundtrip for every scanline filter
    (0-4 fixed + per-row cycle), RGB and RGBA, CRC/truncation errors,
    and the actor-pool feature stage."""
    import pyarrow as pa

    from cesium_ray.stages.multimodal import (
        decode_png, encode_png, png_features)

    rng = np.random.default_rng(23)
    for shape in [(7, 5, 3), (16, 64, 3), (4, 4, 4), (1, 1, 3)]:
        img = rng.integers(0, 256, shape).astype(np.uint8)
        for ft in [0, 1, 2, 3, 4, "cycle"]:
            assert np.array_equal(decode_png(encode_png(img, ft)), img), \
                (shape, ft)

    img = rng.integers(0, 256, (9, 6, 3)).astype(np.uint8)
    payload = encode_png(img, filter_type="cycle")
    assert payload[:8] == b"\x89PNG\r\n\x1a\n"  # real signature

    with pytest.raises(ValueError):
        decode_png(b"\x89PNG\r\n\x1a\n" + b"\x00" * 4)  # truncated
    corrupt = bytearray(payload)
    corrupt[-5] ^= 0xFF  # flip a bit inside IEND's CRC
    with pytest.raises(ValueError):
        decode_png(bytes(corrupt))
    with pytest.raises(ValueError):
        decode_png(b"NOTAPNG!" + payload[8:])

    tbl = pa.table({
        "media_id": pa.array([0], pa.int64()),
        "payload": pa.array([payload], pa.binary()),
    })
    out = png_features(ray.data.from_arrow(tbl), batch_size=4).to_pandas()
    sums = img.reshape(-1, 3).astype(np.int64).sum(axis=0)
    assert out.loc[0, "width"] == 6 and out.loc[0, "height"] == 9
    assert out.loc[0, "n_pixels"] == 54
    assert out.loc[0, "mean_r"] == sums[0] / 54
    assert out.loc[0, "mean_g"] == sums[1] / 54
    assert out.loc[0, "mean_b"] == sums[2] / 54
