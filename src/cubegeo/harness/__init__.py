"""Instance generation, theorem verification jobs, conjecture searches,
JSON serialization, and the CLI."""

from .generators import InstanceSpec, generate, random_t_intersecting_family
from .search import run_search
from .serialize import (
    ParseError,
    colouring_to_obj,
    dumps,
    family_to_obj,
    graph_to_obj,
    instance_to_obj,
    load_instance,
    load_json,
    obj_to_colouring,
    obj_to_family,
    obj_to_graph,
    save_json,
)
from .verify import run_verify
