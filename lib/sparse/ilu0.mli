(** Zero-fill incomplete LU preconditioner on the CSR pattern.

    Produces factors with exactly the sparsity pattern of the input
    matrix; used as a general-purpose preconditioner for {!Krylov.gmres}. *)

type t

exception Zero_pivot of int

val factor : Csr.t -> t
(** @raise Zero_pivot when a diagonal entry is absent or vanishes. *)

val refactorable : t -> Csr.t -> bool
(** Whether [a] shares its pattern arrays (physically) with the matrix
    this preconditioner was factored from. *)

val refactor : t -> Csr.t -> unit
(** Numeric-only re-elimination in place on the frozen pattern: copies
    [a]'s values into the stored factors and re-runs the ILU(0)
    elimination without allocating. Equivalent to [factor a] when
    [refactorable t a].
    @raise Invalid_argument when the pattern differs.
    @raise Zero_pivot as {!factor}. *)

val apply : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [apply p r] approximates [a⁻¹ r] by [U⁻¹ (L⁻¹ r)]. *)

val apply_into : t -> Linalg.Kernel.vec -> Linalg.Kernel.vec -> unit
(** [apply_into p r out] writes the preconditioned vector into [out]
    (every entry overwritten; [out == r] is allowed). *)
