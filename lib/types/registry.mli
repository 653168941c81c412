(** Type-specifier database — the paper's "database that serves as a
    network name server" (section 3.2).

    In the simulated world every site queries the same registry instance,
    which is exactly the paper's shared name-server assumption ("the
    proposed method ... shares only the logical type of the shared
    data"). *)

type t

exception Unknown_type of string
exception Duplicate_type of string

val create : unit -> t

(** [register t name desc] binds [name]. Re-registering the same
    descriptor is idempotent; a different descriptor raises
    {!Duplicate_type}. *)
val register : t -> string -> Type_desc.t -> unit

val find : t -> string -> Type_desc.t
val find_opt : t -> string -> Type_desc.t option
val mem : t -> string -> bool
val names : t -> string list

(** The name server also interns type names as dense numeric ids so that
    wire frames carry a 4-byte specifier instead of a string. Ids are
    assigned in registration order, which is consistent system-wide
    because the registry is shared (it {e is} the name server).

    @raise Unknown_type on unregistered names/ids. *)

val id_of_name : t -> string -> int

val name_of_id : t -> int -> string

(** [resolve t desc] chases [Named] indirections until a structural
    descriptor remains.
    @raise Unknown_type on a dangling name. *)
val resolve : t -> Type_desc.t -> Type_desc.t

(** {1 Compiled layouts}

    The registry also owns the layout of every registered type on every
    architecture it is asked about: {!Layout} is the public view of these
    values. A type is compiled on first use, once per (registry,
    architecture), and the result is kept in the registry, so it lives
    and dies with its cluster. Nothing is compiled at {!register}.

    A stored layout is never invalidated: registration is append-only
    and a re-registration must be identical ({!Duplicate_type}), so the
    descriptors a compiled layout was derived from never change. Only
    successful compiles are stored; a type whose layout raises
    {!Unknown_type} or {!Recursive_type} raises again on every call,
    and succeeds once the missing type is registered. *)

type leaf_kind = Scalar of Type_desc.prim | Ptr of string
type leaf = { leaf_offset : int; kind : leaf_kind }

type layout = {
  size : int;
  align : int;
  fields : field list;
  leaves : leaf list;
  pointer_leaves : (int * string) list;
  as_leaf : leaf_kind option;
}

and field = { name : string; offset : int; ty : Type_desc.t; layout : layout }

exception Recursive_type of string

(** [layout t arch ty] is [ty]'s layout on [arch]. [Named] parts are
    compiled once and shared; the structural rest is laid out on every
    call. See {!Layout} for the meaning of each part.
    @raise Unknown_type on a dangling [Named].
    @raise Recursive_type if a struct contains itself by value. *)
val layout : t -> Srpc_memory.Arch.t -> Type_desc.t -> layout

(** [layout_of_name t arch name] is [layout t arch (Named name)], read
    straight from the compiled table after the first call. *)
val layout_of_name : t -> Srpc_memory.Arch.t -> string -> layout
