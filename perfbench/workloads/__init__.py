"""The five named workloads, in the order the suite runs them."""

from perfbench.workloads.archive_read import ArchiveRead
from perfbench.workloads.ingest_archive import IngestArchive
from perfbench.workloads.job_life import JobLife
from perfbench.workloads.service import ServiceDirect, ServiceRouted

WORKLOADS = {
    cls.name: cls
    for cls in (JobLife, IngestArchive, ArchiveRead, ServiceDirect,
                ServiceRouted)
}
