"""Dataset data model, record-stream (JSON Lines) format, validation, and the
seeded synthetic generator with planted, recoverable structure.

Datasets, embedding tables and prediction sets are versioned JSON Lines
files, UTF-8, read and written by one codec. ``write_jsonl`` puts
``format_version`` first on line 1, then the format's header keys, then one
line per item. ``read_jsonl`` checks line 1 under one rule set: the
supported version; a ``taxonomy`` that is a list of strings forming a valid
``GenreTaxonomy`` (non-empty, distinct); each named dimension an ``int`` of
at least 1. It then yields ``(lineno, object)`` per non-blank line, and every
error names its line. Each format checks its own lines; an embedding vector
or a score row must be a list of finite JSON numbers, with no booleans and no
strings (``finite_vector``). Floats are 32-bit, written as the shortest
decimal that parses back to the same value, so read(write(d)) is bit-exact.

A shot holds its frames as a ``(frames, d_v)`` float32 array and its optional
pixel statistics as a ``(frames, 3)`` one, with the columns ``mean_luma,
warm_frac, cold_frac``. ``array_json`` renders every float32 array of every
file; the rest of a line is ``json.dumps`` text.

A ``Token`` is valid once built. Records from one ``read_dataset`` call, or
one ``synth_dataset`` call, share their immutable ``Token`` instances: each
distinct ``(text, pos)`` pair is built once and referenced by every
transcript that holds it, and ``write_dataset`` renders each distinct token
once per call.
"""

import json
from contextlib import closing
from dataclasses import dataclass, field
from typing import NamedTuple

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


def array_json(values) -> str:
    """A 1-D or 2-D float32 array as JSON: each value as the shortest decimal
    that parses back to the identical 32-bit value (numpy dragon4)."""
    values = _f32(values)
    if values.ndim == 2:
        return "[" + ",".join(map(array_json, values)) + "]"
    return "[" + ",".join(map(str, values)) + "]"


class PixelStats(NamedTuple):
    """Low-level color statistics of one frame: one row of a shot's
    ``pixel_stats`` array, in its column order.

    ``warm_frac + cold_frac <= 1``; the remainder is the neutral fraction
    (low-saturation / low-value pixels).
    """

    mean_luma: float
    warm_frac: float
    cold_frac: float

    @property
    def neutral_frac(self) -> float:
        return 1.0 - self.warm_frac - self.cold_frac


@dataclass(frozen=True)
class Token:
    """One POS-tagged transcript word: a non-empty lowercase ``str`` text and
    a ``str`` POS from ``POS_TAGS``; anything else raises DatasetFormatError.

    Immutable, so records may share instances: the records of one read or
    one synth hold one ``Token`` per distinct ``(text, pos)`` pair.
    """

    text: str
    pos: str

    def __post_init__(self):
        text, pos = self.text, self.pos
        if type(text) is not str or type(pos) is not str:
            problem = f"is not a pair of strings: {[text, pos]!r}"
        elif not text:
            problem = "has empty text"
        elif text != text.lower():
            problem = f"({text!r}) is not lowercase"
        elif pos not in POS_TAGS:
            problem = f"has unknown POS {pos!r}"
        else:
            return
        raise DatasetFormatError(f"token {problem}")


class Shot:
    """One camera shot: a ``(num_frames, d_v)`` float32 frame-feature matrix
    plus optional per-frame pixel statistics, an ``(n, 3)`` float32 array
    whose columns are ``PixelStats``' fields, from any ``(n, 3)`` array-like
    (a list of ``PixelStats`` included). :func:`validate_record` checks n."""

    def __init__(self, frames, pixel_stats=None):
        self.frames = _f32(frames)
        if self.frames.size == 0:
            self.frames = self.frames.reshape(0, 0)
        if self.frames.ndim != 2:
            raise DatasetFormatError(f"shot frames must be 2-D, got shape {self.frames.shape}")
        if pixel_stats is not None:
            pixel_stats = _f32(pixel_stats)
            if pixel_stats.shape == (0,):
                pixel_stats = pixel_stats.reshape(0, 3)
            if pixel_stats.ndim != 2 or pixel_stats.shape[1] != 3:
                raise DatasetFormatError(
                    f"shot pixel_stats must have shape (frames, 3), got {pixel_stats.shape}")
        self.pixel_stats = pixel_stats

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Shot):
            return NotImplemented
        stats, other_stats = self.pixel_stats, other.pixel_stats
        return (
            np.array_equal(self.frames, other.frames)
            and (stats is None) == (other_stats is None)
            and (stats is None or np.array_equal(stats, other_stats))
        )

    def __repr__(self):
        stats = "no" if self.pixel_stats is None else "yes"
        return f"Shot(frames={self.frames.shape}, pixel_stats={stats})"


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
        genres = sorted(self.genres, key=repr)  # a mixed-type set has no other order
        return f"VideoRecord(id={self.id!r}, split={self.split!r}, genres={genres}, shots={len(self.shots)})"


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
    return bool(np.isfinite(arr).all())


def valid_flags(flags) -> bool:
    """Whether every boundary flag is the integer 0 or 1 (a bool is not)."""
    return all(type(b) is int and b in (0, 1) for b in flags)


def validate_record(record: VideoRecord, taxonomy: GenreTaxonomy, dims) -> list:
    """Return ALL violations (empty list means the record is valid).

    ``dims`` is ``(d_v, d_a, d_l)``; d_l is unused here (transcripts carry no
    vectors) but kept so callers can pass dataset dims directly. Transcript
    tokens are not checked here: a ``Token`` is valid once built. Frame
    finiteness is checked once per record; single shots are looked at only
    to name a failing one.
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
    for g in sorted(repr(g) for g in record.genres if type(g) is not str):
        problems.append(f"record {rid}: genre {g} is not a string")
    for g in sorted(g for g in record.genres if type(g) is str):
        if g not in taxonomy.names:
            problems.append(f"record {rid}: genre {g!r} not in taxonomy")
    if len(record.shots) == 0:
        problems.append(f"record {rid}: has no shots")
    frames_finite = not record.shots or _check_finite(
        np.concatenate([shot.frames.ravel() for shot in record.shots]))
    for si, shot in enumerate(record.shots):
        if shot.num_frames == 0:
            problems.append(f"record {rid}: shot {si} has no frames")
            continue
        if shot.frames.shape[1] != d_v:
            problems.append(
                f"record {rid}: shot {si} frame dimension {shot.frames.shape[1]} != d_v {d_v}"
            )
        if not frames_finite and not _check_finite(shot.frames):
            problems.append(f"record {rid}: shot {si} has non-finite frame values")
        if shot.pixel_stats is not None:
            if len(shot.pixel_stats) != shot.num_frames:
                problems.append(
                    f"record {rid}: shot {si} pixel_stats length {len(shot.pixel_stats)}"
                    f" != frame count {shot.num_frames}"
                )
            # rows as Python floats: warm + cold is summed in 64-bit
            for pi, (luma, warm, cold) in enumerate(shot.pixel_stats.tolist()):
                if not (0.0 <= luma <= 1.0 and 0.0 <= warm <= 1.0 and 0.0 <= cold <= 1.0):
                    problems.append(f"record {rid}: shot {si} frame {pi} pixel stats out of [0,1]")
                elif warm + cold > 1.0:
                    problems.append(f"record {rid}: shot {si} frame {pi} warm+cold > 1")
    if record.audio_embedding.ndim != 1 or record.audio_embedding.shape[0] != d_a:
        problems.append(
            f"record {rid}: audio embedding length {record.audio_embedding.shape} != d_a {d_a}"
        )
    elif not _check_finite(record.audio_embedding):
        problems.append(f"record {rid}: audio embedding has non-finite values")
    if record.boundary_flags is not None:
        if len(record.boundary_flags) != max(len(record.shots) - 1, 0):
            problems.append(
                f"record {rid}: boundary_flags length {len(record.boundary_flags)}"
                f" != shots-1 ({len(record.shots) - 1})"
            )
        if not valid_flags(record.boundary_flags):
            problems.append(f"record {rid}: boundary_flags must be integers 0 or 1, "
                            f"got {record.boundary_flags!r}")
    return problems


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_PIXEL_STATS_JSON = '{{"mean_luma":{},"warm_frac":{},"cold_frac":{}}}'.format


def _shot_json(shot: Shot) -> str:
    frames = array_json(shot.frames)
    if shot.pixel_stats is None:
        return f'{{"frames":{frames}}}'
    text = list(map(str, shot.pixel_stats.ravel()))
    stats = ",".join(map(_PIXEL_STATS_JSON, text[0::3], text[1::3], text[2::3]))
    return f'{{"frames":{frames},"pixel_stats":[{stats}]}}'


def _record_json(record: VideoRecord, token_json: dict) -> str:
    """A validated record's JSON line; ``token_json`` maps ``id(token)`` to
    the token's JSON text."""
    genres = ",".join(map(json.dumps, sorted(record.genres)))
    shots = ",".join(map(_shot_json, record.shots))
    tokens = ",".join(map(token_json.__getitem__, map(id, record.transcript)))
    line = (f'{{"id":{json.dumps(record.id)},"split":{json.dumps(record.split)},'
            f'"genres":[{genres}],"shots":[{shots}],'
            f'"audio_embedding":{array_json(record.audio_embedding)},"transcript":[{tokens}]')
    if record.boundary_flags is not None:
        line += f',"boundary_flags":[{",".join(map(str, record.boundary_flags))}]'
    return line + "}"


def _cache_token_json(transcript, token_json: dict) -> None:
    """Render each transcript token missing from ``token_json`` once, keyed by
    its ``id``; every token stays alive in the dataset for the call."""
    if all(map(token_json.__contains__, map(id, transcript))):
        return
    for tok in transcript:
        if id(tok) not in token_json:
            token_json[id(tok)] = f"[{json.dumps(tok.text)},{json.dumps(tok.pos)}]"


def _transcript_from_obj(entries, tokens: dict) -> list:
    """Map ``[text, pos]`` entries to shared Tokens through ``tokens``, the
    read's ``(text, pos) -> Token`` table.

    A transcript of table hits is one lookup per entry; a miss, or any entry
    that is not a pair, goes through the indexed loop, which names the bad
    entry and builds a new Token once, before it enters the table."""
    try:
        # the type guard keeps a two-key object from unpacking like a pair
        if {list}.issuperset(map(type, entries)):
            return [tokens[text, pos] for text, pos in entries]
    except (KeyError, TypeError, ValueError):
        pass
    transcript = []
    for ti, entry in enumerate(entries):
        if type(entry) is not list or len(entry) != 2:
            raise ValueError(f"transcript token {ti} is not a [text, pos] pair: {entry!r}")
        text, pos = entry
        try:
            tok = tokens[text, pos]
        except (KeyError, TypeError):  # a miss, or an unhashable element
            try:
                tok = tokens[text, pos] = Token(text, pos)
            except DatasetFormatError as exc:
                raise ValueError(
                    f"transcript token {ti}{str(exc).removeprefix('token')}") from None
        transcript.append(tok)
    return transcript


def _record_from_obj(obj, lineno: int, tokens: dict) -> VideoRecord:
    """Build one record, its transcript through the read's token table."""
    try:
        shots = []
        for s in obj["shots"]:
            stats = None
            if "pixel_stats" in s:
                stats = [(float(p["mean_luma"]), float(p["warm_frac"]), float(p["cold_frac"]))
                         for p in s["pixel_stats"]]
            shots.append(Shot(np.asarray(s["frames"], dtype=np.float32), stats))
        transcript = _transcript_from_obj(obj["transcript"], tokens)
        if type(obj["id"]) is not str:
            raise ValueError(f"id must be a string, got {obj['id']!r}")
        flags = obj.get("boundary_flags")
        if flags is not None and (type(flags) is not list or not valid_flags(flags)):
            raise ValueError(f"boundary_flags must be a list of integers 0 or 1, got {flags!r}")
        genres = obj["genres"]
        if type(genres) is not list or any(type(g) is not str for g in genres):
            raise ValueError(f"genres must be a list of strings, got {genres!r}")
        return VideoRecord(
            id=obj["id"],
            split=obj["split"],
            genres=genres,
            shots=shots,
            audio_embedding=obj["audio_embedding"],
            transcript=transcript,
            boundary_flags=flags,
        )
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise DatasetFormatError(f"line {lineno}: malformed record ({exc})") from exc


def write_jsonl(path, header: dict, lines) -> None:
    """Write ``header`` after ``format_version`` on line 1, then ``lines``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps({"format_version": FORMAT_VERSION, **header},
                            separators=(",", ":")) + "\n")
        for line in lines:
            fh.write(line + "\n")


def read_jsonl(path, item: str, keys):
    """Yield line 1's checked values for ``keys`` (a taxonomy as a
    ``GenreTaxonomy``), then ``(lineno, object)`` per non-blank line; a line
    that is not JSON is a "malformed ``item``". Close it with
    ``contextlib.closing``."""
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline()
        if not line.strip():
            raise DatasetFormatError("line 1: missing header")
        try:
            header = json.loads(line)
            version = header["format_version"]
            values = [header[key] for key in keys]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DatasetFormatError(f"line 1: malformed header ({exc})") from exc
        if version != FORMAT_VERSION:
            raise DatasetFormatError(f"line 1: unsupported format_version {version!r}")
        for i, (key, value) in enumerate(zip(keys, values)):
            if key == "taxonomy":
                if type(value) is not list or any(type(g) is not str for g in value):
                    raise DatasetFormatError(
                        f"line 1: taxonomy must be a list of strings, got {value!r}")
                try:
                    values[i] = GenreTaxonomy(tuple(value))
                except DatasetFormatError as exc:
                    raise DatasetFormatError(f"line 1: {exc}") from exc
            elif type(value) is not int or value < 1:
                raise DatasetFormatError(f"line 1: {key} must be an integer >= 1, got {value!r}")
        yield values
        for lineno, line in enumerate(fh, start=2):
            if line.strip():
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetFormatError(f"line {lineno}: malformed {item} ({exc})") from exc
                yield lineno, obj


def finite_vector(values, length: int, lineno: int, name: str) -> np.ndarray:
    """``values`` as float32 if it is a list of ``length`` finite JSON
    numbers; call it under ``np.errstate(over="ignore")``."""
    try:
        if (type(values) is list and len(values) == length
                and {int, float}.issuperset(map(type, values))):
            vec = _f32(values)  # beyond float32 range: inf, rejected below
            if _check_finite(vec):
                return vec
    except OverflowError:  # an integer beyond float64 range
        pass
    raise DatasetFormatError(
        f"line {lineno}: {name} must be a list of {length} finite numbers, got {values!r}")


def write_dataset(dataset: Dataset, path) -> None:
    """Write a validated dataset; raises on the first invalid record.

    Each distinct transcript ``Token`` is rendered once per call.
    """
    dims = (dataset.d_v, dataset.d_a, dataset.d_l)
    token_json = {}
    for rec in dataset.records:
        problems = validate_record(rec, dataset.taxonomy, dims)
        if problems:
            raise DatasetFormatError("; ".join(problems))
        _cache_token_json(rec.transcript, token_json)
    header = {"taxonomy": list(dataset.taxonomy.names),
              "d_v": dataset.d_v, "d_a": dataset.d_a, "d_l": dataset.d_l}
    write_jsonl(path, header, (_record_json(rec, token_json) for rec in dataset.records))


def read_dataset(path) -> Dataset:
    """Parse and validate a record-stream file.

    Raises DatasetFormatError naming the offending line / record id for
    malformed lines, invalid tokens (by their index in the transcript),
    dimension mismatches, duplicate ids, or unknown genres. The records share
    one ``Token`` per distinct ``(text, pos)`` pair, each built once.
    """
    records = []
    seen = set()
    tokens = {}
    with closing(read_jsonl(path, "record", ("taxonomy", "d_v", "d_a", "d_l"))) as lines:
        taxonomy, *dims = next(lines)
        # a value beyond float32 range becomes inf, which validation reports
        with np.errstate(over="ignore"):
            for lineno, obj in lines:
                rec = _record_from_obj(obj, lineno, tokens)
                problems = validate_record(rec, taxonomy, dims)
                if problems:
                    raise DatasetFormatError(f"line {lineno}: " + "; ".join(problems))
                if rec.id in seen:
                    raise DatasetFormatError(f"line {lineno}: duplicate record id {rec.id!r}")
                seen.add(rec.id)
                records.append(rec)
    return Dataset(taxonomy, *dims, records=records)


def write_embeddings(table: EmbeddingTable, path) -> None:
    write_jsonl(path, {"d_l": table.dim},
                (f'{{"token":{json.dumps(token)},"vector":{array_json(table.vectors[token])}}}'
                 for token in sorted(table.vectors)))


def read_embeddings(path) -> EmbeddingTable:
    """Parse an embedding file under the module docstring's codec rules."""
    vectors = {}
    with closing(read_jsonl(path, "embedding", ("d_l",))) as lines:
        (dim,) = next(lines)
        with np.errstate(over="ignore"):
            for lineno, obj in lines:
                try:
                    token, values = obj["token"], obj["vector"]
                except (KeyError, TypeError) as exc:
                    raise DatasetFormatError(f"line {lineno}: malformed embedding ({exc})") from exc
                if type(token) is not str:
                    raise DatasetFormatError(
                        f"line {lineno}: token must be a string, got {token!r}")
                vec = finite_vector(values, dim, lineno, "vector")
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
        vocab = json.dumps({g: list(v) for g, v in sorted(self.genre_vocab.items())},
                           separators=(",", ":"))
        fillers = json.dumps(list(self.filler_tokens), separators=(",", ":"))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f'{{"w_visual":{array_json(self.w_visual)},'
                     f'"w_audio":{array_json(self.w_audio)},'
                     f'"w_language":{array_json(self.w_language)},'
                     f'"genre_vocab":{vocab},"filler_tokens":{fillers}}}\n')

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
        n_frames = config.frames_per_shot
        # rng_pix draws nothing else, so one call per record keeps its stream
        stats = (_planted_pixel_stats(active, G, config.shots_per_video * n_frames, rng_pix)
                 if config.with_pixel_stats else None)
        shots = []
        for si in range(config.shots_per_video):
            noise = rng_feat.normal(size=(n_frames, config.d_v))
            frames = (mean_v[None, :] + config.noise_sigma_v * noise).astype(np.float32)
            shots.append(Shot(frames, None if stats is None
                              else stats[si * n_frames:(si + 1) * n_frames]))
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


def _planted_pixel_stats(active, G, n_frames, rng) -> np.ndarray:
    # Brightness rises with genre index, warmth falls: gives genre_profiles
    # a recoverable ordering. Dirichlet keeps warm+cold+neutral an exact
    # partition with a safe neutral margin.
    pos = float(np.mean([g / max(G - 1, 1) for g in active]))
    luma_base = 0.2 + 0.6 * pos
    warm_alpha = 1.0 + 6.0 * (1.0 - pos)
    cold_alpha = 1.0 + 6.0 * pos
    stats = np.empty((n_frames, 3), dtype=np.float32)
    for row in stats:
        row[0] = min(max(luma_base + 0.05 * rng.normal(), 0.0), 1.0)
        row[1:] = rng.dirichlet((warm_alpha, cold_alpha, 2.0))[:2]
    return stats
