"""Dataset data model, record-stream (JSON Lines) format, validation, and the
seeded synthetic generator with planted, recoverable structure.

On-disk format: UTF-8 text, line 1 is a header object carrying the format
version, genre taxonomy, and the three feature dimensions; every following
line is one video record. All floats are 32-bit and serialized as the
shortest decimal that parses back to the identical 32-bit value, so
read(write(d)) is a bit-exact identity.

Records from one ``read_dataset`` call, or one ``synth_dataset`` call,
share their immutable ``Token`` instances: each distinct ``(text, pos)``
pair is built once and referenced by every transcript that holds it.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from ._rng import spawn_rng

__all__ = [
    "POS_TAGS",
    "SPLITS",
    "DEFAULT_GENRES",
    "FORMAT_VERSION",
    "DatasetFormatError",
    "PixelStats",
    "Token",
    "Shot",
    "VideoRecord",
    "GenreTaxonomy",
    "EmbeddingTable",
    "Dataset",
    "SynthConfig",
    "PlantedTruth",
    "validate_record",
    "read_dataset",
    "write_dataset",
    "read_embeddings",
    "write_embeddings",
    "synth_dataset",
    "resplit",
]

POS_TAGS = ("NOUN", "PRON", "ADJ", "VERB", "ADV", "OTHER")
SPLITS = ("train", "val", "test")
FORMAT_VERSION = 1

# Default 21-genre taxonomy (common movie-catalog genre names). Order fixes
# the label-vector index assignment.
DEFAULT_GENRES = (
    "Action", "Adventure", "Animation", "Biography", "Comedy", "Crime",
    "Documentary", "Drama", "Family", "Fantasy", "History", "Horror",
    "Music", "Musical", "Mystery", "Romance", "Sci-Fi", "Sport",
    "Thriller", "War", "Western",
)


class DatasetFormatError(ValueError):
    """Raised for malformed files or records that violate the data model."""


def _f32(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float32)


def _fmt32(x) -> str:
    # Shortest decimal that round-trips the 32-bit value (numpy dragon4).
    return str(np.float32(x))


def as_f32_value(x) -> float:
    """Round a scalar to its exact 32-bit value (stored as a Python float)."""
    return float(np.float32(x))


@dataclass
class PixelStats:
    """Per-frame low-level color statistics.

    ``warm_frac + cold_frac <= 1``; the remainder is the neutral fraction
    (low-saturation / low-value pixels). Fields are canonicalized to exact
    32-bit values, matching the on-disk float width.
    """

    mean_luma: float
    warm_frac: float
    cold_frac: float

    def __post_init__(self):
        self.mean_luma = float(np.float32(self.mean_luma))
        self.warm_frac = float(np.float32(self.warm_frac))
        self.cold_frac = float(np.float32(self.cold_frac))

    @property
    def neutral_frac(self) -> float:
        return 1.0 - self.warm_frac - self.cold_frac


@dataclass(frozen=True)
class Token:
    """One POS-tagged transcript word.

    Immutable, so records may share instances: the records of one read or
    one synth hold one ``Token`` per distinct ``(text, pos)`` pair.
    """

    text: str
    pos: str


class Shot:
    """One camera shot: a (num_frames, d_v) float32 frame-feature matrix plus
    optional per-frame pixel statistics."""

    def __init__(self, frames, pixel_stats=None):
        self.frames = _f32(frames)
        if self.frames.size == 0:
            self.frames = self.frames.reshape(0, 0)
        if self.frames.ndim != 2:
            raise DatasetFormatError(f"shot frames must be 2-D, got shape {self.frames.shape}")
        self.pixel_stats = list(pixel_stats) if pixel_stats is not None else None

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Shot):
            return NotImplemented
        return (
            self.frames.shape == other.frames.shape
            and np.array_equal(self.frames, other.frames)
            and self.pixel_stats == other.pixel_stats
        )

    def __repr__(self):
        return f"Shot(frames={self.frames.shape}, pixel_stats={'yes' if self.pixel_stats else 'no'})"


class VideoRecord:
    """One video: shots, audio embedding, POS-tagged transcript, genre labels,
    split tag, and (for scene-annotated sequences) boundary flags between
    consecutive shots. The id and flags are kept as given; :func:`validate_record`
    reports a non-string id and any flag that is not the integer 0 or 1."""

    def __init__(self, id, split, genres, shots, audio_embedding, transcript,
                 boundary_flags=None):
        self.id = id
        self.split = split
        self.genres = set(genres)
        self.shots = list(shots)
        self.audio_embedding = _f32(audio_embedding)
        self.transcript = list(transcript)
        self.boundary_flags = None if boundary_flags is None else list(boundary_flags)

    def __eq__(self, other):
        if not isinstance(other, VideoRecord):
            return NotImplemented
        return (
            self.id == other.id
            and self.split == other.split
            and self.genres == other.genres
            and self.shots == other.shots
            and np.array_equal(self.audio_embedding, other.audio_embedding)
            and self.transcript == other.transcript
            and self.boundary_flags == other.boundary_flags
        )

    def __repr__(self):
        return f"VideoRecord(id={self.id!r}, split={self.split!r}, genres={sorted(self.genres)}, shots={len(self.shots)})"


@dataclass(frozen=True)
class GenreTaxonomy:
    """Ordered, duplicate-free genre list; order fixes label-vector indices."""

    names: tuple

    def __post_init__(self):
        names = tuple(self.names)
        if len(set(names)) != len(names):
            raise DatasetFormatError("taxonomy contains duplicate genre names")
        if not names:
            raise DatasetFormatError("taxonomy is empty")
        object.__setattr__(self, "names", names)

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def index(self, genre: str) -> int:
        try:
            return self.names.index(genre)
        except ValueError:
            raise KeyError(f"unknown genre {genre!r}") from None

    def label_vector(self, genres) -> np.ndarray:
        """Binary indicator vector in taxonomy order (float64)."""
        y = np.zeros(len(self.names), dtype=np.float64)
        for g in genres:
            y[self.index(g)] = 1.0
        return y

    @classmethod
    def default(cls) -> "GenreTaxonomy":
        return cls(DEFAULT_GENRES)


@dataclass
class EmbeddingTable:
    """Token -> d_l float32 vector lookup (stand-in for a frozen text encoder)."""

    dim: int
    vectors: dict = field(default_factory=dict)

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def __getitem__(self, token: str) -> np.ndarray:
        return self.vectors[token]

    def __eq__(self, other):
        if not isinstance(other, EmbeddingTable):
            return NotImplemented
        if self.dim != other.dim or self.vectors.keys() != other.vectors.keys():
            return False
        return all(np.array_equal(v, other.vectors[k]) for k, v in self.vectors.items())


@dataclass
class Dataset:
    taxonomy: GenreTaxonomy
    d_v: int
    d_a: int
    d_l: int
    records: list

    def split(self, name: str) -> list:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return [r for r in self.records if r.split == name]

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.taxonomy == other.taxonomy
            and (self.d_v, self.d_a, self.d_l) == (other.d_v, other.d_a, other.d_l)
            and self.records == other.records
        )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _check_finite(arr) -> bool:
    return bool(np.all(np.isfinite(arr)))


def validate_record(record: VideoRecord, taxonomy: GenreTaxonomy, dims) -> list:
    """Return ALL violations (empty list means the record is valid).

    ``dims`` is ``(d_v, d_a, d_l)``; d_l is unused here (transcripts carry no
    vectors) but kept so callers can pass dataset dims directly.
    """
    d_v, d_a, _ = dims
    rid = record.id
    problems = []
    if type(rid) is not str:
        problems.append(f"record id must be a string, got {rid!r}")
    elif not rid:
        problems.append("record id is empty")
    if record.split not in SPLITS:
        problems.append(f"record {rid}: split {record.split!r} not in {SPLITS}")
    for g in sorted(record.genres):
        if g not in taxonomy.names:
            problems.append(f"record {rid}: genre {g!r} not in taxonomy")
    if len(record.shots) == 0:
        problems.append(f"record {rid}: has no shots")
    for si, shot in enumerate(record.shots):
        if shot.num_frames == 0:
            problems.append(f"record {rid}: shot {si} has no frames")
            continue
        if shot.frames.shape[1] != d_v:
            problems.append(
                f"record {rid}: shot {si} frame dimension {shot.frames.shape[1]} != d_v {d_v}"
            )
        if not _check_finite(shot.frames):
            problems.append(f"record {rid}: shot {si} has non-finite frame values")
        if shot.pixel_stats is not None:
            if len(shot.pixel_stats) != shot.num_frames:
                problems.append(
                    f"record {rid}: shot {si} pixel_stats length {len(shot.pixel_stats)}"
                    f" != frame count {shot.num_frames}"
                )
            for pi, ps in enumerate(shot.pixel_stats):
                if not (0.0 <= ps.mean_luma <= 1.0 and 0.0 <= ps.warm_frac <= 1.0
                        and 0.0 <= ps.cold_frac <= 1.0):
                    problems.append(f"record {rid}: shot {si} frame {pi} pixel stats out of [0,1]")
                elif ps.warm_frac + ps.cold_frac > 1.0:
                    problems.append(f"record {rid}: shot {si} frame {pi} warm+cold > 1")
    if record.audio_embedding.ndim != 1 or record.audio_embedding.shape[0] != d_a:
        problems.append(
            f"record {rid}: audio embedding length {record.audio_embedding.shape} != d_a {d_a}"
        )
    elif not _check_finite(record.audio_embedding):
        problems.append(f"record {rid}: audio embedding has non-finite values")
    for ti, tok in enumerate(record.transcript):
        if not tok.text:
            problems.append(f"record {rid}: transcript token {ti} has empty text")
        elif tok.text != tok.text.lower():
            problems.append(f"record {rid}: transcript token {ti} ({tok.text!r}) is not lowercase")
        if tok.pos not in POS_TAGS:
            problems.append(f"record {rid}: transcript token {ti} has unknown POS {tok.pos!r}")
    if record.boundary_flags is not None:
        if len(record.boundary_flags) != max(len(record.shots) - 1, 0):
            problems.append(
                f"record {rid}: boundary_flags length {len(record.boundary_flags)}"
                f" != shots-1 ({len(record.shots) - 1})"
            )
        if any(type(b) is not int or b not in (0, 1) for b in record.boundary_flags):
            problems.append(f"record {rid}: boundary_flags must be integers 0 or 1, "
                            f"got {record.boundary_flags!r}")
    return problems


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _emit(obj, out: list):
    if isinstance(obj, str):  # first: transcript words are most of a record
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray) and obj.ndim == 1:
        out.append("[")
        out.append(",".join(_fmt32(v) for v in obj))
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for k, v in obj.items():
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(k))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):  # a 2-D array row by row
        out.append("[")
        first = True
        for v in obj:
            if not first:
                out.append(",")
            first = False
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt32(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def json_line(obj) -> str:
    """Serialize one header/record object to a single JSON line; all floats,
    numpy array elements included, are written in their shortest 32-bit form."""
    out = []
    _emit(obj, out)
    return "".join(out)


def _shot_to_obj(shot: Shot):
    obj = {"frames": shot.frames}
    if shot.pixel_stats is not None:
        obj["pixel_stats"] = [
            {"mean_luma": ps.mean_luma, "warm_frac": ps.warm_frac, "cold_frac": ps.cold_frac}
            for ps in shot.pixel_stats
        ]
    return obj


def _record_to_obj(record: VideoRecord):
    obj = {
        "id": record.id,
        "split": record.split,
        "genres": sorted(record.genres),
        "shots": [_shot_to_obj(s) for s in record.shots],
        "audio_embedding": record.audio_embedding,
        "transcript": [[t.text, t.pos] for t in record.transcript],
    }
    if record.boundary_flags is not None:
        obj["boundary_flags"] = list(record.boundary_flags)
    return obj


def _transcript_from_obj(entries, tokens: dict) -> list:
    """Map ``[text, pos]`` entries to shared Tokens through ``tokens``, a
    ``(text, pos) -> Token`` table that holds only string pairs, so a hit
    needs no type check."""
    transcript = []
    for ti, entry in enumerate(entries):
        if type(entry) is not list or len(entry) != 2:
            raise ValueError(f"transcript token {ti} is not a [text, pos] pair: {entry!r}")
        text, pos = entry
        try:
            tok = tokens[text, pos]
        except (KeyError, TypeError):  # a miss, or an unhashable element
            if type(text) is not str or type(pos) is not str:
                raise ValueError(
                    f"transcript token {ti} is not a pair of strings: {entry!r}"
                ) from None
            tok = tokens[text, pos] = Token(text, pos)
        transcript.append(tok)
    return transcript


def _record_from_obj(obj, lineno: int, tokens: dict) -> VideoRecord:
    try:
        shots = []
        for s in obj["shots"]:
            stats = None
            if "pixel_stats" in s:
                stats = [
                    PixelStats(float(p["mean_luma"]), float(p["warm_frac"]), float(p["cold_frac"]))
                    for p in s["pixel_stats"]
                ]
            shots.append(Shot(np.asarray(s["frames"], dtype=np.float32), stats))
        transcript = _transcript_from_obj(obj["transcript"], tokens)
        if type(obj["id"]) is not str:
            raise ValueError(f"id must be a string, got {obj['id']!r}")
        flags = obj.get("boundary_flags")
        if flags is not None and (type(flags) is not list
                                  or any(type(b) is not int or b not in (0, 1) for b in flags)):
            raise ValueError(f"boundary_flags must be a list of integers 0 or 1, got {flags!r}")
        return VideoRecord(
            id=obj["id"],
            split=obj["split"],
            genres=obj["genres"],
            shots=shots,
            audio_embedding=obj["audio_embedding"],
            transcript=transcript,
            boundary_flags=flags,
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DatasetFormatError(f"line {lineno}: malformed record ({exc})") from exc


def write_dataset(dataset: Dataset, path) -> None:
    """Write a validated dataset; raises on the first invalid record."""
    dims = (dataset.d_v, dataset.d_a, dataset.d_l)
    for rec in dataset.records:
        problems = validate_record(rec, dataset.taxonomy, dims)
        if problems:
            raise DatasetFormatError("; ".join(problems))
    header = {
        "format_version": FORMAT_VERSION,
        "taxonomy": list(dataset.taxonomy.names),
        "d_v": dataset.d_v,
        "d_a": dataset.d_a,
        "d_l": dataset.d_l,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_line(header) + "\n")
        for rec in dataset.records:
            fh.write(json_line(_record_to_obj(rec)) + "\n")


def read_dataset(path) -> Dataset:
    """Parse and validate a record-stream file.

    Raises DatasetFormatError naming the offending line / record id for
    malformed lines, dimension mismatches, duplicate ids, or unknown genres.
    The records share one ``Token`` per distinct ``(text, pos)`` pair.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise DatasetFormatError("line 1: missing header")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"line 1: malformed header ({exc})") from exc
        try:
            if header["format_version"] != FORMAT_VERSION:
                raise DatasetFormatError(
                    f"line 1: unsupported format_version {header['format_version']!r}"
                )
            names = header["taxonomy"]
            d_v, d_a, d_l = dims = header["d_v"], header["d_a"], header["d_l"]
        except (KeyError, TypeError) as exc:
            raise DatasetFormatError(f"line 1: malformed header ({exc})") from exc
        if type(names) is not list or any(type(g) is not str for g in names):
            raise DatasetFormatError(f"line 1: taxonomy must be a list of strings, got {names!r}")
        if any(type(d) is not int for d in dims):
            raise DatasetFormatError(f"line 1: feature dimensions must be integers, got {dims!r}")
        try:
            taxonomy = GenreTaxonomy(tuple(names))
        except DatasetFormatError as exc:
            raise DatasetFormatError(f"line 1: {exc}") from exc
        if min(dims) < 1:
            raise DatasetFormatError("line 1: feature dimensions must be >= 1")

        records = []
        seen = set()
        tokens = {}
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"line {lineno}: malformed record ({exc})") from exc
            rec = _record_from_obj(obj, lineno, tokens)
            problems = validate_record(rec, taxonomy, (d_v, d_a, d_l))
            if problems:
                raise DatasetFormatError(f"line {lineno}: " + "; ".join(problems))
            if rec.id in seen:
                raise DatasetFormatError(f"line {lineno}: duplicate record id {rec.id!r}")
            seen.add(rec.id)
            records.append(rec)
    return Dataset(taxonomy=taxonomy, d_v=d_v, d_a=d_a, d_l=d_l, records=records)


def write_embeddings(table: EmbeddingTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_line({"format_version": FORMAT_VERSION, "d_l": table.dim}) + "\n")
        for token in sorted(table.vectors):
            fh.write(json_line({"token": token, "vector": _f32(table.vectors[token])}) + "\n")


def read_embeddings(path) -> EmbeddingTable:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
            dim = int(header["d_l"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DatasetFormatError(f"line 1: malformed embedding header ({exc})") from exc
        vectors = {}
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                vec = _f32(obj["vector"])
                token = obj["token"]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DatasetFormatError(f"line {lineno}: malformed embedding ({exc})") from exc
            if vec.shape != (dim,):
                raise DatasetFormatError(
                    f"line {lineno}: vector length {vec.shape[0]} != d_l {dim}"
                )
            if not _check_finite(vec):
                raise DatasetFormatError(f"line {lineno}: non-finite embedding for {token!r}")
            if token in vectors:
                raise DatasetFormatError(f"line {lineno}: duplicate token {token!r}")
            vectors[token] = vec
    return EmbeddingTable(dim=dim, vectors=vectors)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

@dataclass
class SynthConfig:
    """Knobs for the planted-structure generator.

    Frame and audio features are linear images of the label vector plus
    Gaussian noise; transcripts mix genre vocabulary (high frequency),
    shared filler words (present everywhere, lower frequency) and junk
    tokens with non-keyword POS tags.
    """

    num_videos: int = 600
    num_genres: int = 8
    d_v: int = 16
    d_a: int = 16
    d_l: int = 16
    shots_per_video: int = 10
    frames_per_shot: int = 4
    noise_sigma_v: float = 0.1
    noise_sigma_a: float = 0.1
    noise_sigma_l: float = 0.1
    vocab_per_genre: int = 6
    num_fillers: int = 30
    num_junk: int = 12
    # Probability that each vocabulary word of an active genre shows up in a
    # record's transcript (at least one per active genre is guaranteed).
    # Below 1.0 this turns the fixed embedding noise into per-record noise,
    # which is how the language channel's signal-to-noise is degraded.
    vocab_presence_prob: float = 1.0
    with_pixel_stats: bool = False
    taxonomy: tuple = None  # default: first num_genres of DEFAULT_GENRES

    def validate(self) -> None:
        counts = {
            "num_videos": self.num_videos,
            "num_genres": self.num_genres,
            "d_v": self.d_v,
            "d_a": self.d_a,
            "d_l": self.d_l,
            "shots_per_video": self.shots_per_video,
            "frames_per_shot": self.frames_per_shot,
            "vocab_per_genre": self.vocab_per_genre,
        }
        for name, v in counts.items():
            if int(v) < 1:
                raise ValueError(f"synth config: {name} must be >= 1, got {v}")
        for name, v in (("noise_sigma_v", self.noise_sigma_v),
                        ("noise_sigma_a", self.noise_sigma_a),
                        ("noise_sigma_l", self.noise_sigma_l)):
            if float(v) < 0:
                raise ValueError(f"synth config: {name} must be >= 0, got {v}")
        if not (0.0 < self.vocab_presence_prob <= 1.0):
            raise ValueError("synth config: vocab_presence_prob must be in (0, 1]")
        if self.taxonomy is None and self.num_genres > len(DEFAULT_GENRES):
            raise ValueError(
                f"synth config: num_genres {self.num_genres} exceeds default taxonomy; "
                "pass an explicit taxonomy"
            )
        if self.taxonomy is not None and len(self.taxonomy) != self.num_genres:
            raise ValueError("synth config: taxonomy length != num_genres")

    def genre_names(self) -> tuple:
        if self.taxonomy is not None:
            return tuple(self.taxonomy)
        return DEFAULT_GENRES[: self.num_genres]


@dataclass
class PlantedTruth:
    """What the generator hid in the data: the label-to-feature maps and the
    per-genre vocabularies."""

    w_visual: np.ndarray    # (d_v, G) float32
    w_audio: np.ndarray     # (d_a, G) float32
    w_language: np.ndarray  # (d_l, G) float32
    genre_vocab: dict       # genre name -> list of token texts
    filler_tokens: list

    def save(self, path) -> None:
        obj = {
            "w_visual": self.w_visual,
            "w_audio": self.w_audio,
            "w_language": self.w_language,
            "genre_vocab": {g: list(v) for g, v in sorted(self.genre_vocab.items())},
            "filler_tokens": list(self.filler_tokens),
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json_line(obj) + "\n")

    @classmethod
    def load(cls, path) -> "PlantedTruth":
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.loads(fh.read())
        return cls(
            w_visual=_f32(obj["w_visual"]),
            w_audio=_f32(obj["w_audio"]),
            w_language=_f32(obj["w_language"]),
            genre_vocab={g: list(v) for g, v in obj["genre_vocab"].items()},
            filler_tokens=list(obj["filler_tokens"]),
        )


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name.lower())


# POS assignment cycles through the keyword-eligible tags so all three are
# exercised; junk tokens get the excluded tags.
_ELIGIBLE = ("NOUN", "ADJ", "PRON")
_JUNK_POS = ("VERB", "ADV", "OTHER")


def _assign_splits(n: int, rng: np.random.Generator) -> list:
    # Exact 7:1:2 counts, then a seeded permutation; keeps val non-empty for
    # small n (unlike i.i.d. draws).
    n_train = int(round(0.7 * n))
    n_val = int(round(0.1 * n))
    if n >= 3:
        n_train = min(n_train, n - 2)
        n_val = max(n_val, 1)
    tags = ["train"] * n_train + ["val"] * n_val + ["test"] * (n - n_train - n_val)
    perm = rng.permutation(n)
    return [tags[i] for i in perm]


def synth_dataset(config: SynthConfig, seed: int):
    """Generate ``(Dataset, EmbeddingTable, PlantedTruth)``; a pure function
    of (config, seed)."""
    config.validate()
    G = config.num_genres
    names = config.genre_names()
    taxonomy = GenreTaxonomy(names)

    rng_truth = spawn_rng(seed, "synth/truth")
    rng_labels = spawn_rng(seed, "synth/labels")
    rng_feat = spawn_rng(seed, "synth/features")
    rng_text = spawn_rng(seed, "synth/transcripts")
    rng_split = spawn_rng(seed, "synth/splits")
    rng_pix = spawn_rng(seed, "synth/pixels")

    w_v = rng_truth.normal(size=(config.d_v, G)).astype(np.float32)
    w_a = rng_truth.normal(size=(config.d_a, G)).astype(np.float32)
    w_l = rng_truth.normal(size=(config.d_l, G)).astype(np.float32)

    genre_vocab = {}
    vectors = {}
    for gi, name in enumerate(names):
        vocab = [f"{_slug(name)}_w{j}" for j in range(config.vocab_per_genre)]
        genre_vocab[name] = vocab
        for tok in vocab:
            noise = rng_truth.normal(size=config.d_l)
            vectors[tok] = (w_l[:, gi].astype(np.float64)
                            + config.noise_sigma_l * noise).astype(np.float32)
    fillers = [f"filler{j}" for j in range(config.num_fillers)]
    for tok in fillers:
        vectors[tok] = rng_truth.normal(size=config.d_l).astype(np.float32)
    junk = [f"junk{j}" for j in range(config.num_junk)]
    # junk tokens are deliberately absent from the embedding table

    # One shared Token per word, reused by every record that draws it.
    vocab_tokens = {name: [Token(w, _ELIGIBLE[j % 3]) for j, w in enumerate(vocab)]
                    for name, vocab in genre_vocab.items()}
    filler_tokens = [Token(w, _ELIGIBLE[j % 3]) for j, w in enumerate(fillers)]
    junk_tokens = [Token(w, _JUNK_POS[j % 3]) for j, w in enumerate(junk)]

    table = EmbeddingTable(dim=config.d_l, vectors=vectors)
    truth = PlantedTruth(w_visual=w_v, w_audio=w_a, w_language=w_l,
                         genre_vocab=genre_vocab, filler_tokens=fillers)

    # Geometrically skewed genre marginals so the label distribution is
    # imbalanced and macro != micro metrics are exercised. The ratio is mild
    # enough that cross-genre vocabulary leakage (co-occurrence count times
    # its idf boost) stays below the filler scores in every genre's TF-IDF
    # top-N; steeper skews let the most popular genres' words crowd other
    # genres' lists and get wrongly excluded.
    marginals = 0.9 ** np.arange(G)
    marginals /= marginals.sum()

    splits = _assign_splits(config.num_videos, rng_split)
    w_v64 = w_v.astype(np.float64)
    w_a64 = w_a.astype(np.float64)

    records = []
    for i in range(config.num_videos):
        k = min(int(rng_labels.integers(1, 4)), G)  # 1..3 positives, capped by G
        active = sorted(rng_labels.choice(G, size=k, replace=False, p=marginals).tolist())
        y = np.zeros(G, dtype=np.float64)
        y[active] = 1.0
        genres = {names[g] for g in active}

        mean_v = w_v64 @ y
        shots = []
        for _ in range(config.shots_per_video):
            noise = rng_feat.normal(size=(config.frames_per_shot, config.d_v))
            frames = (mean_v[None, :] + config.noise_sigma_v * noise).astype(np.float32)
            stats = None
            if config.with_pixel_stats:
                stats = _planted_pixel_stats(active, G, config.frames_per_shot, rng_pix)
            shots.append(Shot(frames, stats))
        audio = (w_a64 @ y + config.noise_sigma_a * rng_feat.normal(size=config.d_a)).astype(np.float32)

        tokens = []
        for g in active:
            vocab = vocab_tokens[names[g]]
            present = [j for j in range(len(vocab))
                       if rng_text.random() < config.vocab_presence_prob]
            if not present:
                present = [int(rng_text.integers(0, len(vocab)))]
            for j in present:
                reps = int(rng_text.integers(4, 7))  # 4..6: dominates fillers
                tokens.extend([vocab[j]] * reps)
        for tok in filler_tokens:
            # fixed count in every record: scores land between own-genre
            # vocabulary (reps 4..6, mean 5) and cross-genre leakage, so the
            # per-genre top-N is own vocab followed by fillers, and the
            # cross-genre exclusion removes exactly the fillers
            tokens.extend([tok] * 4)
        n_junk = int(rng_text.integers(5, 11))
        for _ in range(n_junk):
            tokens.append(junk_tokens[int(rng_text.integers(0, config.num_junk))])
        order = rng_text.permutation(len(tokens))
        transcript = [tokens[j] for j in order]

        records.append(VideoRecord(
            id=f"v{i:05d}",
            split=splits[i],
            genres=genres,
            shots=shots,
            audio_embedding=audio,
            transcript=transcript,
        ))

    dataset = Dataset(taxonomy=taxonomy, d_v=config.d_v, d_a=config.d_a,
                      d_l=config.d_l, records=records)
    return dataset, table, truth


def _planted_pixel_stats(active, G, n_frames, rng) -> list:
    # Brightness rises with genre index, warmth falls: gives genre_profiles
    # a recoverable ordering. Dirichlet keeps warm+cold+neutral an exact
    # partition with a safe neutral margin.
    pos = float(np.mean([g / max(G - 1, 1) for g in active]))
    luma_base = 0.2 + 0.6 * pos
    warm_alpha = 1.0 + 6.0 * (1.0 - pos)
    cold_alpha = 1.0 + 6.0 * pos
    stats = []
    for _ in range(n_frames):
        luma = float(np.clip(luma_base + 0.05 * rng.normal(), 0.0, 1.0))
        warm, cold, _neutral = rng.dirichlet((warm_alpha, cold_alpha, 2.0))
        stats.append(PixelStats(
            mean_luma=as_f32_value(luma),
            warm_frac=as_f32_value(warm),
            cold_frac=as_f32_value(cold),
        ))
    return stats


def resplit(dataset: Dataset, seed: int) -> Dataset:
    """Re-draw train/val/test tags at the 7:1:2 ratio from a seed; returns a
    new Dataset sharing the shot/audio/transcript payloads."""
    tags = _assign_splits(len(dataset.records), spawn_rng(seed, "resplit"))
    records = [
        VideoRecord(r.id, tags[i], r.genres, r.shots, r.audio_embedding,
                    r.transcript, r.boundary_flags)
        for i, r in enumerate(dataset.records)
    ]
    return Dataset(dataset.taxonomy, dataset.d_v, dataset.d_a, dataset.d_l, records)
