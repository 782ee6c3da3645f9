"""Hidden web database simulator: the substrate the paper's estimators query.

Public surface: schemas and tuples, the dynamic database, its restrictive
top-k search interface, and budgeted query sessions.
"""

from .backends import (
    PackedArrayBackend,
    ShardedBackend,
    StorageBackend,
    available_backends,
    get_default_backend,
    get_default_backend_options,
    make_backend,
    mod_many,
    register_backend,
    set_default_backend,
    set_default_backend_options,
    shift_many,
    using_backend,
    using_backend_options,
)
from .backends_mapped import MappedBackend
from .database import HiddenDatabase
from .interface import TopKInterface
from .query import ConjunctiveQuery
from .ranking import MeasureScore, RandomScore, RecencyScore
from .result import QueryResult, QueryStatus
from .schema import Attribute, Schema, boolean_schema
from .session import QuerySession
from .store import (
    KeyCodec,
    PrefixIndex,
    SortedKeyList,
    TupleStore,
)
from .tuples import HiddenTuple, TupleBatch, make_tuple

__all__ = [
    "Attribute",
    "ConjunctiveQuery",
    "HiddenDatabase",
    "HiddenTuple",
    "KeyCodec",
    "MappedBackend",
    "MeasureScore",
    "PackedArrayBackend",
    "PrefixIndex",
    "QueryResult",
    "QuerySession",
    "QueryStatus",
    "RandomScore",
    "RecencyScore",
    "Schema",
    "ShardedBackend",
    "SortedKeyList",
    "StorageBackend",
    "TopKInterface",
    "TupleBatch",
    "TupleStore",
    "available_backends",
    "boolean_schema",
    "get_default_backend",
    "get_default_backend_options",
    "make_backend",
    "make_tuple",
    "mod_many",
    "register_backend",
    "set_default_backend",
    "set_default_backend_options",
    "shift_many",
    "using_backend",
    "using_backend_options",
]
