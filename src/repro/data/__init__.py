"""Data substrate: datasets, synthetic generators, and partitioners."""

from repro.data.dataset import Dataset
from repro.data.partition import (
    PartitionPlan,
    PartitionStats,
    dirichlet_partition,
    iid_partition,
    label_skew_partition,
    partition_dataset,
    partition_indices,
    partition_plan,
    partition_stats,
    quantity_skew_partition,
    shard_partition,
)
from repro.data.synthetic import (
    make_cifar10_like,
    make_cifar100_like,
    make_image_classification,
    make_mnist_like,
    make_prototypes,
)

__all__ = [
    "Dataset",
    "iid_partition",
    "shard_partition",
    "dirichlet_partition",
    "label_skew_partition",
    "quantity_skew_partition",
    "partition_indices",
    "partition_plan",
    "PartitionPlan",
    "partition_dataset",
    "PartitionStats",
    "partition_stats",
    "make_prototypes",
    "make_image_classification",
    "make_mnist_like",
    "make_cifar10_like",
    "make_cifar100_like",
]
