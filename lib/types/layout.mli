(** Per-architecture memory layout of a descriptor.

    C-style rules: every primitive is aligned to its own size, pointers
    to the architecture's word size, structs to their widest member, and
    struct sizes are rounded up to their alignment. Because pointer
    width differs across architectures, the same record legitimately has
    different sizes on different machines — this is the heterogeneity the
    paper's type-directed transfer handles (and that heterogeneous DSM
    systems cannot, section 5.2).

    Layouts of registered types are compiled once per (registry,
    architecture) on first use and kept in the {!Registry.t}: every call
    below on a [Named] type returns that one compiled value, so the
    codec, the accessors and the closure walk never re-derive a layout.
    The table is never invalidated, because registration is append-only
    and re-registration must be identical (see {!Registry}). *)

open Srpc_memory

(** A scalar leaf of a type: its byte offset and what sits there. The
    leaf sequence of a type has the same length and kind order on every
    architecture (only offsets differ), which is what lets the wire
    format be canonical. *)
type leaf_kind = Registry.leaf_kind = Scalar of Type_desc.prim | Ptr of string

type leaf = Registry.leaf = { leaf_offset : int; kind : leaf_kind }

type t = Registry.layout = {
  size : int;
  align : int;
  fields : field list;  (** non-empty only for struct layouts *)
  leaves : leaf list;
      (** scalar leaves in declaration order, flattening nested structs
          and arrays *)
  pointer_leaves : (int * string) list;
      (** [leaves] restricted to pointers: (offset, pointee type name) *)
  as_leaf : leaf_kind option;
      (** [Some k] when the type is itself one leaf (a primitive or a
          pointer, possibly behind [Named] aliases): what a single load
          or store of it reads *)
}

(** A direct struct field: its offset and the layout of its type, from
    which an accessor reads the field's primitive or pointee
    ([layout.as_leaf]) and the closure walk its pointer leaves (relative
    to [offset]). *)
and field = Registry.field = { name : string; offset : int; ty : Type_desc.t; layout : t }

exception Recursive_type of string

(** [of_type reg arch ty] is the layout.
    @raise Registry.Unknown_type on a dangling [Named].
    @raise Recursive_type if a struct contains itself by value. *)
val of_type : Registry.t -> Arch.t -> Type_desc.t -> t

(** [of_name reg arch name] is [of_type reg arch (Named name)]. *)
val of_name : Registry.t -> Arch.t -> string -> t

val sizeof : Registry.t -> Arch.t -> Type_desc.t -> int

(** [sizeof_name reg arch name] is the size of the registered type
    [name]. *)
val sizeof_name : Registry.t -> Arch.t -> string -> int

(** [field l name] is the direct field [name] of a struct layout.
    @raise Not_found if [l] has no such field. *)
val field : t -> string -> field

(** [field_offset reg arch ~ty ~field] is the offset of a direct struct
    field.
    @raise Not_found if [ty] is not a struct with that field. *)
val field_offset : Registry.t -> Arch.t -> ty:Type_desc.t -> field:string -> int

(** [field_type reg ~ty ~field] is a direct struct field's declared
    type. @raise Not_found as above. *)
val field_type : Registry.t -> ty:Type_desc.t -> field:string -> Type_desc.t

(** [leaves reg arch ty] is [(of_type reg arch ty).leaves]. *)
val leaves : Registry.t -> Arch.t -> Type_desc.t -> leaf list

(** [pointer_leaves reg arch ty] is [(of_type reg arch ty).pointer_leaves]. *)
val pointer_leaves : Registry.t -> Arch.t -> Type_desc.t -> (int * string) list
